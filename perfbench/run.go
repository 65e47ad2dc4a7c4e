package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"redundancy/internal/slo"
)

// Ladder rung limits.
const (
	// limitSlack scales the workload's SLO target into the rung's p99
	// limit. The controller steers p99 onto its target and hovers there
	// while it can, so an unscaled limit would let noise on that flat
	// stretch decide goodput; the slack puts the limit where the
	// controller has lost the SLO.
	limitSlack  = 1.2
	maxFailFrac = 0.001
	// lateLimit bounds the generator's p90 lateness: beyond it the
	// generator is not keeping up and the rung's numbers are not valid.
	lateLimit = 5 * time.Millisecond
	// failStreak consecutive failing rungs end the ladder; one failing
	// rung below a passing one is smoothed out by goodput.
	failStreak = 2
)

// passOpts selects how one pass over a plan runs.
type passOpts struct {
	seed   int64
	traced bool
	setups int  // stacks built; set-up time is their median, the last is used
	fixed  int  // > 0: fixed read fan-out instead of the controller (probe)
	ladder bool // run the goodput ladder after the base window
	spans  string
}

// passResult is every metric one pass measured, by name.
type passResult struct {
	m                 map[string]float64
	attempted, failed int64
	violations        int64
}

// runPass builds the stack, sends the plan and measures it.
func runPass(p *plan, o passOpts) (*passResult, error) {
	runtime.GC()
	epoch := time.Now()
	var tr *tracer
	if o.traced {
		n := len(p.warm.reqs) + len(p.base.reqs)
		for _, r := range p.rungs {
			n += len(r.reqs)
		}
		tr = newTracer(epoch, 8*n)
	}
	st, setupSecs, err := setUp(p, stackOpts{tracer: tr, fixed: o.fixed, seed: o.seed}, o.setups)
	if err != nil {
		return nil, err
	}
	defer st.close()

	chk := newChecker(p, st.hotVersions)
	lg := &loadgen{st: st, p: p, chk: chk, tr: tr, epoch: epoch}
	res := &passResult{m: map[string]float64{"setup_s": setupSecs}}
	m := res.m

	var ws []*watcher
	if p.w.watchers > 0 {
		chk.setWatching(true)
		for i := range p.w.watchers {
			w, err := openWatch(st.clients[0], st.base, fmt.Sprintf("p%d/", i), epoch, chk)
			if err != nil {
				for _, w := range ws {
					w.stop()
				}
				return nil, err
			}
			ws = append(ws, w)
		}
	}

	// The base window follows the warm-up after a pause for a garbage
	// collection, as testing.B does before timing, so how many
	// collections fall inside the window depends on what the window
	// allocates, not on where the last one happened to end. Snapshots
	// bracket the window.
	count(res, lg.run(&p.warm, 0))
	idBase := uint64(len(p.warm.reqs))
	runtime.GC()
	busy0, n0 := make([]int64, len(st.disks)), make([]int64, len(st.disks))
	for i, d := range st.disks {
		d.recordWaits(true)
		busy0[i], n0[i] = d.counts()
	}
	ops0, copies0 := st.ctr.Ops(), st.ctr.LaunchedCopies()
	slo0 := sloStats(st)
	var flips0 int64
	if st.gov != nil {
		flips0 = st.gov.Stats().Flips
	}
	smp := startSampler(st)
	t0 := time.Now()
	before := snapProc()
	out := lg.run(&p.base, idBase)
	pd := before.to(snapProc())
	// Peak memory of set-up, warm-up and the base window; the ladder's
	// overload transients would make it a measure of luck.
	m["peak_rss_mb"] = peakRSSMB()
	window := time.Since(t0)
	smp.stop()
	ops1, copies1 := st.ctr.Ops(), st.ctr.LaunchedCopies()
	slo1 := sloStats(st)

	var all, late []int64
	var byOp [numOps][]int64
	var baseFailed int64
	for i := range out {
		o := &out[i]
		lat := o.latency()
		all = append(all, lat)
		byOp[p.base.reqs[i].op] = append(byOp[p.base.reqs[i].op], lat)
		if o.sent > 0 {
			late = append(late, o.sent-o.due)
		}
		if o.failed {
			baseFailed++
		}
	}
	count(res, out)
	nBase := int64(len(out))
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	m["copies_per_op"] = ratio(copies1-copies0, ops1-ops0)
	m["cpu_us_per_op"] = float64(pd.cpu.Microseconds()) / float64(max(nBase, 1))

	m["op.read_p50_ms"] = ms(percentile(byOp[p.w.readOp], 0.50))
	m["op.all_p50_ms"] = ms(percentile(all, 0.50))
	m["loadgen.late_p99_ms"] = ms(percentile(late, 0.99))
	m["loadgen.base_ops"] = float64(nBase)
	m["loadgen.base_failed"] = float64(baseFailed)
	m["loadgen.fail_frac"] = ratio(baseFailed, nBase)
	for op := range numOps {
		name := "op." + op.String()
		m[name+"_p99_ms"] = ms(percentile(byOp[op], 0.99))
		m[name+"_p50_ms"] = ms(percentile(byOp[op], 0.50))
		m[name+"_n"] = float64(len(byOp[op]))
	}

	m["runtime.alloc_bytes_per_op"] = float64(pd.allocBytes) / float64(max(nBase, 1))
	m["runtime.allocs_per_op"] = float64(pd.allocObjs) / float64(max(nBase, 1))
	m["runtime.gc_cpu_frac"] = pd.gcCPU / max(pd.cpu.Seconds(), 1e-9)
	m["runtime.cpu_s"] = pd.cpu.Seconds()
	m["runtime.sched_lat_p99_us"] = pd.schedP99 * 1e6
	m["runtime.goroutines_max"] = float64(smp.goroutinesMax)

	m["core.governor_samples"] = float64(smp.n)
	m["core.governor_util"] = smp.util / float64(max(smp.n, 1))
	m["core.governor_gated_frac"] = ratio(smp.gated, smp.n)
	if st.gov != nil {
		m["core.governor_flips"] = float64(st.gov.Stats().Flips - flips0)
	}
	m["slo.fanout"] = float64(slo1.Config.Fanout)
	m["slo.quantile"] = slo1.Config.Quantile
	m["slo.holds"] = float64(slo1.Holds - slo0.Holds)
	m["slo.tightens"] = float64(slo1.Tightens - slo0.Tightens)
	m["slo.relaxes"] = float64(slo1.Relaxes - slo0.Relaxes)
	m["slo.clamps"] = float64(slo1.Clamps - slo0.Clamps)
	m["slo.rejects"] = float64(slo1.Rejects - slo0.Rejects)
	m["slo.window_p99_ms"] = float64(slo1.WindowP99) / 1e6

	var waits []int64
	var utilMax float64
	var busy, served int64
	for i, d := range st.disks {
		waits = append(waits, d.recordWaits(false)...)
		b, n := d.counts()
		busy += b - busy0[i]
		served += n - n0[i]
		utilMax = max(utilMax, float64(b-busy0[i])/float64(window))
	}
	m["disk.util_max"] = utilMax
	m["disk.wait_p99_ms"] = ms(percentile(waits, 0.99))
	m["disk.service_mean_ms"] = float64(busy) / float64(max(served, 1)) / 1e6
	m["disk.requests"] = float64(served)

	for _, k := range []string{"watch.events", "watch.acked", "watch.dups", "watch.missing",
		"watch.superseded", "watch.unacked", "watch.lag_p50_ms", "op.watch_lag_p99_ms"} {
		m[k] = 0 // stays 0 for workloads without watches
	}
	if len(ws) > 0 {
		chk.mu.Lock()
		acks := chk.acks
		chk.watching = false
		chk.mu.Unlock()
		drainWatchers(ws, int64(len(acks)), 5*time.Second)
		rep := checkWatch(ws, acks, p.keys, p.w.hotKeys, chk)
		m["watch.events"] = float64(rep.events)
		m["watch.acked"] = float64(rep.acked)
		m["watch.dups"] = float64(rep.dups)
		m["watch.missing"] = float64(rep.missing)
		m["watch.superseded"] = float64(rep.superseded)
		m["watch.unacked"] = float64(rep.unacked)
		m["watch.lag_p50_ms"] = ms(percentile(rep.lags, 0.50))
		m["op.watch_lag_p99_ms"] = ms(percentile(rep.lags, 0.99))
	}

	baseIDs := idBase
	idBase += uint64(len(p.base.reqs))
	rungs := 0
	if o.ladder {
		m["loadgen.goodput_rps"], rungs = climb(lg, res, idBase)
	}
	m["loadgen.rungs"] = float64(rungs)
	m["loadgen.max_inflight"] = float64(lg.maxInflight.Load())
	m["loadgen.conns"] = float64(st.conns())
	if c := st.conns(); c > int64(maxConns()) {
		chk.violateOutside("gateway accepted %d connections, limit %d", c, maxConns())
	}

	if tr != nil {
		spans, dropped := tr.recorded()
		for k, v := range analyzeSpans(spans, baseIDs+1, baseIDs+uint64(len(p.base.reqs))+1,
			func(id uint64) opKind { return p.base.reqs[id-baseIDs-1].op }, p.w.shards) {
			m[k] = v
		}
		m["trace.spans"] = float64(len(spans))
		m["trace.dropped"] = float64(dropped)
		if o.spans != "" {
			if err := writeSpans(o.spans, spans); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	res.violations = chk.violations.Load()
	// Violations found outside a request's own response (watch delivery,
	// connection count) count as failures too.
	res.failed += chk.outside.Load()
	return res, nil
}

// setUp builds the stack n times and keeps the last; the set-up time is
// the median.
func setUp(p *plan, so stackOpts, n int) (*stack, float64, error) {
	var secs []float64
	for i := range n {
		t := time.Now()
		st, err := buildStack(p, so)
		if err != nil {
			return nil, 0, fmt.Errorf("set up: %w", err)
		}
		secs = append(secs, time.Since(t).Seconds())
		if i == n-1 {
			p.initial = nil // preloaded for good: let the collector have it
			return st, median(secs), nil
		}
		st.close()
		runtime.GC() // so the peak RSS reflects one stack
	}
	return nil, 0, errors.New("set up: no stack built")
}

// climb runs the goodput ladder: rungs in ascending rate until failStreak
// in a row miss a limit. It returns the goodput and the rungs run.
func climb(lg *loadgen, res *passResult, idBase uint64) (float64, int) {
	p := lg.p
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var rates, scores []float64
	streak := 0
	for i := range p.rungs {
		rung := &p.rungs[i]
		runtime.GC()
		out := lg.run(rung, idBase)
		idBase += uint64(len(rung.reqs))
		count(res, out)
		var lat, late []int64 // latency, and lateness of sent requests
		var failed int64
		for _, o := range out[rung.first:] {
			lat = append(lat, o.latency())
			if o.sent > 0 {
				late = append(late, o.sent-o.due)
			}
			if o.failed {
				failed++
			}
		}
		p99, ff, lp90 := ms(percentile(lat, 0.99)), ratio(failed, int64(len(lat))), ms(percentile(late, 0.90))
		s := rungScore(p99, limitSlack*ms(int64(p.w.target)), ff, maxFailFrac, lp90, ms(int64(lateLimit)))
		fmt.Fprintf(os.Stderr, "rung %6.0f req/s: p99 %.2f ms, failed %.4f, late p90 %.2f ms, score %.3f\n", rung.rate, p99, ff, lp90, s)
		rates, scores = append(rates, rung.rate), append(scores, s)
		if streak = streak + 1; s <= 1 {
			streak = 0
		}
		if streak == failStreak {
			break
		}
	}
	return goodput(rates, scores), len(scores)
}

// count adds a phase's requests to the pass totals.
func count(res *passResult, out []outcome) {
	res.attempted += int64(len(out))
	for _, o := range out {
		if o.failed {
			res.failed++
		}
	}
}

func sloStats(st *stack) slo.ClassStats {
	if st.ctl == nil {
		return slo.ClassStats{}
	}
	for _, cs := range st.ctl.Stats() {
		if cs.Class == slo.DefaultClass {
			return cs
		}
	}
	return slo.ClassStats{}
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
