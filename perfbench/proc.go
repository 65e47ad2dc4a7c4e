package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSnap is the process and Go runtime counters at one instant; two
// snapshots bracket the measured window so set-up and warm-up drop out.
type procSnap struct {
	cpu        time.Duration // user + system
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64 // seconds
	sched      *metrics.Float64Histogram
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func snapProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	h := s[3].Value.Float64Histogram()
	return procSnap{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		sched: &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: h.Buckets,
		},
	}
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procDelta is what happened between two snapshots.
type procDelta struct {
	cpu        time.Duration
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64
	schedP99   float64 // seconds
}

func (a procSnap) to(b procSnap) procDelta {
	d := procDelta{
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes,
		allocObjs:  b.allocObjs - a.allocObjs,
		gcCPU:      b.gcCPU - a.gcCPU,
	}
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total > 0 {
		// The upper edge of the bucket holding the 99th percentile (its
		// lower edge if the upper is unbounded).
		want := total - total/100
		var cum uint64
		for i, c := range counts {
			cum += c
			if cum >= want {
				d.schedP99 = b.sched.Buckets[i+1]
				if d.schedP99 > 1e9 {
					d.schedP99 = b.sched.Buckets[i]
				}
				break
			}
		}
	}
	return d
}

// sampler polls what has no counter — goroutines, the governor's gate and
// utilization — every interval until stopped.
type sampler struct {
	stopC chan struct{}
	done  chan struct{}

	n, gated      int64
	util          float64
	goroutinesMax int
}

const sampleEvery = 10 * time.Millisecond

func startSampler(st *stack) *sampler {
	s := &sampler{stopC: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			s.goroutinesMax = max(s.goroutinesMax, runtime.NumGoroutine())
			if st.gov != nil {
				gs := st.gov.Stats()
				s.n++
				s.util += gs.Utilization
				if gs.Gated {
					s.gated++
				}
			}
			select {
			case <-s.stopC:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling; the fields may be read once it returns.
func (s *sampler) stop() {
	close(s.stopC)
	<-s.done
}
