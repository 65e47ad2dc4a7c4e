package main

import (
	"reflect"
	"testing"
)

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := makePlan(w, 7, 2, true), makePlan(w, 7, 2, true)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", w.name)
		}
		c := makePlan(w, 8, 2, true)
		if reflect.DeepEqual(a.base.reqs, c.base.reqs) {
			t.Errorf("%s: seeds 7 and 8 gave the same base schedule", w.name)
		}
	}
}

func TestPlanShape(t *testing.T) {
	for _, w := range workloads {
		p := makePlan(w, 1, 4, true)
		if len(p.rungs) != len(w.ladder) {
			t.Fatalf("%s: %d rungs, want %d", w.name, len(p.rungs), len(w.ladder))
		}
		if p.warm.first != len(p.warm.reqs) || p.base.first != 0 {
			t.Errorf("%s: warm-up measures from %d of %d, base from %d", w.name, p.warm.first, len(p.warm.reqs), p.base.first)
		}
		for _, ph := range p.rungs {
			if ph.first <= 0 || ph.first >= len(ph.reqs) {
				t.Errorf("%s: rung measures from %d of %d", w.name, ph.first, len(ph.reqs))
			}
		}
		phases := append([]phase{p.warm, p.base}, p.rungs...)
		seen := map[int32]bool{}
		for _, ph := range phases {
			for i, r := range ph.reqs {
				if i > 0 && r.at < ph.reqs[i-1].at {
					t.Fatalf("%s: arrivals out of order", w.name)
				}
				if w.mix[r.op] == 0 {
					t.Fatalf("%s: op %s is not in the mix", w.name, r.op)
				}
				if r.op == opCAS && int(r.key) >= w.hotKeys || r.op == opPut && int(r.key) < w.hotKeys {
					t.Fatalf("%s: %s on key %d (hot keys %d)", w.name, r.op, r.key, w.hotKeys)
				}
				if r.op == opPut {
					if seen[r.key] {
						t.Fatalf("%s: key %d PUT twice in one run", w.name, r.key)
					}
					seen[r.key] = true
				}
				if r.op == opPut || r.op == opCAS {
					if _, err := checkValue(r.val, p.keys[r.key]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := makeValue("p1/0000001", 42, 100)
	if seq, err := checkValue(v, "p1/0000001"); err != nil || seq != 42 {
		t.Fatalf("checkValue = %d, %v", seq, err)
	}
	if _, err := checkValue(v, "p1/0000002"); err == nil {
		t.Error("value accepted under another key")
	}
	v[50] ^= 1
	if _, err := checkValue(v, "p1/0000001"); err == nil {
		t.Error("corrupted value accepted")
	}
	if _, err := checkValue(v[:5], "p1/0000001"); err == nil {
		t.Error("truncated value accepted")
	}
}
