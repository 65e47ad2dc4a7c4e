package main

import (
	"cmp"
	"slices"
)

// analyzeSpans attributes the measured requests' time to layers. ids are
// the measured request IDs [lo, hi); opOf maps an ID to its op.
func analyzeSpans(spans []span, lo, hi uint64, opOf func(uint64) opKind, shards int) map[string]float64 {
	type reqSpans struct {
		sent, done, hStart, hEnd int64
		hasReq, hasHandler       bool
		copies                   []span
	}
	rs := make([]reqSpans, hi-lo)
	for _, s := range spans {
		if s.id < lo || s.id >= hi {
			continue
		}
		r := &rs[s.id-lo]
		switch s.kind {
		case spanRequest:
			r.sent, r.done, r.hasReq = s.start, s.end, true
		case spanHandler:
			r.hStart, r.hEnd, r.hasHandler = s.start, s.end, true
		case spanCopy:
			r.copies = append(r.copies, s)
		}
	}

	var (
		httpOver, self, launch, offsets, spread []int64
		rtt                                     [numCopyOps][]int64
		byShard                                 = make([]int64, shards)
		reads, readCopies, cancelled            int64
		hedged, secondWins, copies, copyErrs    int64
		requests                                int64
	)
	for i := range rs {
		r := &rs[i]
		cs := r.copies
		slices.SortFunc(cs, func(a, b span) int { return cmp.Compare(a.start, b.start) })
		if r.hasHandler {
			requests++
			self = append(self, (r.hEnd-r.hStart)-covered(cs, r.hStart, r.hEnd))
			if len(cs) > 0 {
				launch = append(launch, cs[0].start-r.hStart)
			}
			if r.hasReq {
				httpOver = append(httpOver, (r.done-r.sent)-(r.hEnd-r.hStart))
			}
		}
		for _, c := range cs {
			copies++
			byShard[c.shard]++
			switch c.outcome {
			case outcomeError:
				copyErrs++
				rtt[c.op] = append(rtt[c.op], c.end-c.start)
			case outcomeOK:
				rtt[c.op] = append(rtt[c.op], c.end-c.start)
			}
		}
		switch opOf(lo + uint64(i)) {
		case opGet:
			reads++
			readCopies += int64(len(cs))
			winner, winEnd := -1, int64(0)
			for j, c := range cs {
				if c.outcome == outcomeCancelled {
					cancelled++
				}
				if c.outcome == outcomeOK && (winner < 0 || c.end < winEnd) {
					winner, winEnd = j, c.end
				}
			}
			if len(cs) >= 2 {
				hedged++
				offsets = append(offsets, cs[1].start-cs[0].start)
				if winner == 1 {
					secondWins++
				}
			}
		case opPut:
			first, last, n := int64(0), int64(0), 0
			for _, c := range cs {
				if c.op != copyPutV || c.outcome != outcomeOK {
					continue
				}
				if n == 0 || c.end < first {
					first = c.end
				}
				last = max(last, c.end)
				n++
			}
			if n >= 2 {
				spread = append(spread, last-first)
			}
		}
	}

	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	m := map[string]float64{
		"gateway.requests":             float64(requests),
		"gateway.http_p50_us":          us(percentile(httpOver, 0.50)),
		"gateway.http_p99_us":          us(percentile(httpOver, 0.99)),
		"gateway.self_p50_us":          us(percentile(self, 0.50)),
		"core.launch_p50_us":           us(percentile(launch, 0.50)),
		"core.hedge_offset_p50_ms":     ms(percentile(offsets, 0.50)),
		"core.reads":                   float64(reads),
		"core.read_copies":             float64(readCopies),
		"core.cancelled":               float64(cancelled),
		"core.hedged_reads":            float64(hedged),
		"core.second_wins":             float64(secondWins),
		"core.copies_per_read":         ratio(readCopies, reads),
		"core.cancelled_frac":          ratio(cancelled, readCopies),
		"core.useful_frac":             ratio(reads, readCopies),
		"core.second_win_frac":         ratio(secondWins, hedged),
		"memkv.copies":                 float64(copies),
		"memkv.copy_errors":            float64(copyErrs),
		"memkv.put_copy_spread_p99_us": us(percentile(spread, 0.99)),
	}
	for op := copyGet; op < copyOther; op++ {
		m["memkv."+copyOpNames[op]+"_copy_p50_us"] = us(percentile(rtt[op], 0.50))
		m["memkv."+copyOpNames[op]+"_copy_p99_us"] = us(percentile(rtt[op], 0.99))
	}
	if copies > 0 {
		m["memkv.copies_by_shard_max_over_mean"] = float64(slices.Max(byShard)) * float64(shards) / float64(copies)
	} else {
		m["memkv.copies_by_shard_max_over_mean"] = 0
	}
	return m
}

// covered is how much of [lo, hi] the spans (sorted by start) cover.
func covered(cs []span, lo, hi int64) int64 {
	var total int64
	cur := lo
	for _, c := range cs {
		s, e := max(c.start, cur), min(c.end, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
