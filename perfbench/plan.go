package main

import (
	"math/rand/v2"
	"time"
)

// req is one scheduled request.
type req struct {
	at  time.Duration // due time, from the start of its phase
	key int32         // key index (for scans, the cursor key)
	op  opKind
	val []byte // PUT and CAS payload
}

// phase is one open-loop stretch at a fixed offered rate. Requests due
// before its settle time are warm-up: sent, checked and counted, but left
// out of the phase's latency statistics.
type phase struct {
	rate  float64
	reqs  []req
	first int // index of the first request due at or after the settle time
}

// plan is everything a run sends, generated from the seed before any
// timing starts: keys, preload values, and every phase's arrivals, ops,
// keys and payloads.
type plan struct {
	w       *workload
	keys    []string
	initial [][]byte // preload value of every key
	warm    phase    // warm-up at the base rate, not measured
	base    phase    // the measured base window
	rungs   []phase  // the goodput ladder
}

// Shares of a plan's seconds: warm-up, and the base window with and
// without a goodput ladder, which takes the rest.
const (
	warmShare       = 0.10
	baseShare       = 0.90
	baseShareLadder = 0.45
	// rungSettle is the share of each ladder rung left out as warm-up.
	rungSettle = 0.25
)

// makePlan draws the plan of a run of the given seconds, with a goodput
// ladder or without.
func makePlan(w *workload, seed int64, seconds float64, ladder bool) *plan {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed_0f_be7c))
	p := &plan{w: w, keys: make([]string, w.keys), initial: make([][]byte, w.keys)}
	var seq uint64
	for i := range p.keys {
		p.keys[i] = keyName(i)
		seq++
		p.initial[i] = makeValue(p.keys[i], seq, valueSize(rng, w))
	}
	g := &generator{w: w, rng: rng, seq: seq, keys: p.keys}
	// PUTs walk a random permutation of the non-hot keys, so a key is
	// written again only after every other one was: no two PUTs to one
	// key overlap, and the watch check can demand exactly-once delivery.
	g.putOrder = rng.Perm(w.keys - w.hotKeys)

	secs := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	p.warm = g.phase(w.baseRate, secs(warmShare), secs(warmShare))
	if !ladder {
		p.base = g.phase(w.baseRate, secs(baseShare), 0)
		return p
	}
	p.base = g.phase(w.baseRate, secs(baseShareLadder), 0)
	rung := secs(1-warmShare-baseShareLadder) / time.Duration(len(w.ladder))
	for _, rate := range w.ladder {
		p.rungs = append(p.rungs, g.phase(rate, rung, time.Duration(rungSettle*float64(rung))))
	}
	return p
}

func valueSize(rng *rand.Rand, w *workload) int {
	return w.valueMin + rng.IntN(w.valueMax-w.valueMin+1)
}

// generator draws requests; its state carries across phases so the PUT
// key walk and the write sequence continue.
type generator struct {
	w        *workload
	rng      *rand.Rand
	seq      uint64
	keys     []string
	putOrder []int
	putNext  int
}

// phase draws Poisson arrivals at rate for dur.
func (g *generator) phase(rate float64, dur, settle time.Duration) phase {
	ph := phase{rate: rate, first: -1}
	var cum [numOps]float64
	total := 0.0
	for i, wt := range g.w.mix {
		total += wt
		cum[i] = total
	}
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			break
		}
		if ph.first < 0 && at >= settle {
			ph.first = len(ph.reqs)
		}
		u := g.rng.Float64() * total
		op := opKind(0)
		for op < numOps-1 && u >= cum[op] {
			op++
		}
		r := req{at: at, op: op}
		switch op {
		case opGet, opQGet, opScan:
			r.key = int32(g.rng.IntN(len(g.keys)))
		case opPut:
			r.key = int32(g.w.hotKeys + g.putOrder[g.putNext])
			g.putNext = (g.putNext + 1) % len(g.putOrder)
		case opCAS:
			r.key = int32(g.rng.IntN(g.w.hotKeys))
		}
		if op == opPut || op == opCAS {
			g.seq++
			r.val = makeValue(g.keys[r.key], g.seq, valueSize(g.rng, g.w))
		}
		ph.reqs = append(ph.reqs, r)
	}
	if ph.first < 0 {
		ph.first = len(ph.reqs)
	}
	return ph
}
