package main

import (
	"reflect"
	"testing"

	"redundancy/internal/memkv"
)

// TestTracedMuxForwardsEveryMethod keeps the timing wrapper complete: a
// MuxClient method it lacks would hide a capability from ShardedClient.
func TestTracedMuxForwardsEveryMethod(t *testing.T) {
	mux := reflect.TypeOf((*memkv.MuxClient)(nil))
	wrap := reflect.TypeOf((*tracedMux)(nil))
	for i := range mux.NumMethod() {
		m := mux.Method(i)
		w, ok := wrap.MethodByName(m.Name)
		if !ok {
			t.Errorf("tracedMux lacks MuxClient.%s", m.Name)
			continue
		}
		if m.Type.NumIn() != w.Type.NumIn() || m.Type.NumOut() != w.Type.NumOut() {
			t.Errorf("tracedMux.%s has another signature than MuxClient's", m.Name)
			continue
		}
		for j := 1; j < m.Type.NumIn(); j++ { // skip the receiver
			if m.Type.In(j) != w.Type.In(j) {
				t.Errorf("tracedMux.%s argument %d differs", m.Name, j)
			}
		}
		for j := range m.Type.NumOut() {
			if m.Type.Out(j) != w.Type.Out(j) {
				t.Errorf("tracedMux.%s result %d differs", m.Name, j)
			}
		}
	}
}

func TestAnalyzeSpans(t *testing.T) {
	// Request 1 is a hedged GET: the handler runs 100–1100, the first
	// copy 150–1000 is cancelled, the hedge launched at 400 wins at 600.
	// Request 2 is a PUT whose two copies end 300 apart.
	spans := []span{
		{id: 1, kind: spanRequest, start: 0, end: 1300},
		{id: 1, kind: spanHandler, start: 100, end: 1100},
		{id: 1, kind: spanCopy, op: copyGet, shard: 0, outcome: outcomeCancelled, start: 150, end: 1000},
		{id: 1, kind: spanCopy, op: copyGet, shard: 1, outcome: outcomeOK, start: 400, end: 600},
		{id: 2, kind: spanHandler, start: 2000, end: 3000},
		{id: 2, kind: spanCopy, op: copyPutV, shard: 0, outcome: outcomeOK, start: 2100, end: 2500},
		{id: 2, kind: spanCopy, op: copyPutV, shard: 1, outcome: outcomeOK, start: 2100, end: 2800},
		{id: 9, kind: spanHandler, start: 0, end: 5}, // outside the window
	}
	ops := map[uint64]opKind{1: opGet, 2: opPut}
	m := analyzeSpans(spans, 1, 3, func(id uint64) opKind { return ops[id] }, 2)
	want := map[string]float64{
		"gateway.requests":                    2,
		"gateway.http_p99_us":                 0.3, // 1300 − 1000 ns
		"core.reads":                          1,
		"core.read_copies":                    2,
		"core.copies_per_read":                2,
		"core.cancelled_frac":                 0.5,
		"core.useful_frac":                    0.5,
		"core.hedged_reads":                   1,
		"core.second_win_frac":                1,
		"core.hedge_offset_p50_ms":            250e-6,
		"core.launch_p50_us":                  0.05, // 50 ns for the GET, 100 for the PUT
		"memkv.get_copy_p50_us":               0.2,  // the cancelled copy has no RTT
		"memkv.putv_copy_p99_us":              0.7,
		"memkv.put_copy_spread_p99_us":        0.3,
		"memkv.copies":                        4,
		"memkv.copies_by_shard_max_over_mean": 1,
	}
	for k, v := range want {
		if !near(m[k], v) {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	// Self time: the GET's handler is covered 150–1000 (850 of 1000); the
	// PUT's 2100–2800 (700 of 1000). The median of 150 and 300 is 150.
	if got := m["gateway.self_p50_us"]; !near(got, 0.15) {
		t.Errorf("gateway.self_p50_us = %v, want 0.15", got)
	}
}
