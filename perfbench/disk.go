package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"redundancy/internal/dist"
)

// fcfs is a single first-come-first-served server on a virtual clock.
type fcfs struct{ freeAt int64 }

// admit runs one step of the Lindley recursion for a request arriving at
// now that needs svc of service: it starts once the server is free, and
// the server is then busy until it completes. Times are nanoseconds.
func (q *fcfs) admit(now, svc int64) (wait, done int64) {
	start := max(now, q.freeAt)
	q.freeAt = start + svc
	return start - now, q.freeAt
}

// diskModel is a disk's service time: a cache hit costs hit; a miss
// (probability miss) adds a lognormal seek; every request then transfers
// its value at bytesPerSec. The constants follow internal/cluster's
// Emulab-scale disks, as the ablshard experiment does.
type diskModel struct {
	hit         time.Duration
	miss        float64
	seekMean    time.Duration
	seekCV      float64
	bytesPerSec float64
}

// mean is the model's mean service time for values of size bytes.
func (m *diskModel) mean(size int) time.Duration {
	return m.hit + time.Duration(m.miss*float64(m.seekMean)) + m.transfer(size)
}

func (m *diskModel) transfer(size int) time.Duration {
	return time.Duration(float64(size) / m.bytesPerSec * float64(time.Second))
}

// disk emulates one FCFS disk in front of a shard through the server's
// Delay hook: each request reserves a lognormal service time behind the
// requests already queued, and its response is held until its virtual
// completion. Reserved service is not given back when the client abandons
// a copy, as on a real disk. The disk is off (no delay) until switched on,
// so preload traffic does not occupy it.
type disk struct {
	on    atomic.Bool
	epoch time.Time
	fixed time.Duration // hit plus transfer
	miss  float64
	seek  dist.Dist

	mu     sync.Mutex
	rng    *rand.Rand
	q      fcfs
	busy   int64 // service reserved while on, ns
	n      int64 // requests served while on
	record bool
	waits  []int64
}

func newDisk(m *diskModel, valueSize int, seed int64) *disk {
	return &disk{
		epoch: time.Now(),
		fixed: m.hit + m.transfer(valueSize),
		miss:  m.miss,
		seek:  dist.LogNormalMeanCV(m.seekMean.Seconds(), m.seekCV),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// service draws one request's service time, in ns.
func (d *disk) service() int64 {
	svc := int64(d.fixed)
	if d.rng.Float64() < d.miss {
		svc += int64(d.seek.Sample(d.rng) * float64(time.Second))
	}
	return svc
}

// delay is the shard server's Delay hook.
func (d *disk) delay() time.Duration {
	if !d.on.Load() {
		return 0
	}
	now := int64(time.Since(d.epoch))
	d.mu.Lock()
	svc := d.service()
	wait, done := d.q.admit(now, svc)
	d.busy += svc
	d.n++
	if d.record {
		d.waits = append(d.waits, wait)
	}
	d.mu.Unlock()
	return time.Duration(done - now)
}

// counts returns the service reserved and requests served so far.
func (d *disk) counts() (busy, n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.busy, d.n
}

// recordWaits starts or stops keeping queueing waits; stopping returns
// the waits kept since the start.
func (d *disk) recordWaits(on bool) []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.record = on
	w := d.waits
	d.waits = nil
	return w
}
