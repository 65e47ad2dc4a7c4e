package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// runProbe measures what one extra read copy costs on the live stack, in
// the shape of the paper's Figs. 12-13: the base window is run with the
// read fan-out forced to one copy and then to two, with no controller or
// governor, and the differences in CPU per op and read latency are
// divided by the difference in copies per op.
func runProbe(w *workload, seed int64, seconds float64) int {
	type arm struct {
		Copies      int     `json:"copies"`
		CopiesPerOp float64 `json:"copies_per_op"`
		CPUPerOp    float64 `json:"cpu_us_per_op"`
		ReadP50     float64 `json:"read_p50_ms"`
		ReadP99     float64 `json:"read_p99_ms"`
	}
	var arms []arm
	for k := 1; k <= 2; k++ {
		r, err := runPass(makePlan(w, seed, seconds, false), passOpts{seed: seed, setups: 1, fixed: k})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: probe k=%d: %v\n", k, err)
			return 2
		}
		if r.violations > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: probe k=%d: %d correctness violations\n", k, r.violations)
			return 1
		}
		arms = append(arms, arm{k, r.m["copies_per_op"], r.m["cpu_us_per_op"], r.m["op.read_p50_ms"], r.m["op."+w.readOp.String()+"_p99_ms"]})
	}
	extra := arms[1].CopiesPerOp - arms[0].CopiesPerOp
	out := struct {
		Workload        string  `json:"workload"`
		RatePerSec      float64 `json:"rate_rps"`
		Arms            []arm   `json:"arms"`
		CPUPerExtraCopy float64 `json:"cpu_us_per_extra_copy"`
		ReadP50PerExtra float64 `json:"read_p50_ms_per_extra_copy"`
		ReadP99PerExtra float64 `json:"read_p99_ms_per_extra_copy"`
	}{w.name, w.baseRate, arms,
		(arms[1].CPUPerOp - arms[0].CPUPerOp) / extra,
		(arms[1].ReadP50 - arms[0].ReadP50) / extra,
		(arms[1].ReadP99 - arms[0].ReadP99) / extra}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(b))
	return 0
}
