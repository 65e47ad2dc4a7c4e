// Command perfbench is the live-stack benchmark. In one process it starts
// memkv shards, a MuxClient per shard, a ShardedClient, the SLO controller,
// the governor and the HTTP gateway, wired the way cmd/gateway wires them,
// and sends seeded open-loop traffic to the gateway over h2c.
//
//	bash perfbench/run.sh --workload mem-read --seed 1 --seconds 15 --trace 0
//
// A run sets the stack up five times (set-up time is the median), then
// sends a warm-up and a measured base window at the workload's base rate.
// Every response is checked; any violation makes the run exit 1.
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":N,"metrics":{"name":{"value":V,"unit":"U"},…}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run is made twice from the same seed with half the seconds each,
// untraced and then with spans recorded at every layer boundary, each
// pass ending with a ladder of rising offered rates for the goodput
// metric; the metrics are the per-layer ones plus the tracing overhead of
// each end-to-end metric. The spans are written to
// .bench_build/spans-<workload>-<seed>.tsv at exit.
//
// --probe runs the base window twice with the read fan-out forced to one
// and then two copies, and prints the cost of one extra copy; it is not
// part of the gated metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: disk-tail, mem-read or write-watch")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 30, "measured seconds: warm-up and base window, and the ladder of a traced run")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced pass")
		probe   = flag.Bool("probe", false, "measure the per-copy overhead at the base rate instead")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if *probe {
		os.Exit(runProbe(w, *seed, *seconds))
	}
	spans := fmt.Sprintf(".bench_build/spans-%s-%d.tsv", w.name, *seed)
	os.Exit(runBench(w, *seed, *seconds, *trace == 1, spans))
}

// setups is how many times a run sets the stack up; setup_s is the median.
const setups = 5

// runBench runs the workload once untraced, or, traced, twice from the
// same seed with half the seconds each: untraced, then traced.
func runBench(w *workload, seed int64, seconds float64, traced bool, spans string) int {
	if traced {
		seconds /= 2
	}
	u, err := runPass(makePlan(w, seed, seconds, traced), passOpts{seed: seed, setups: setups, ladder: traced})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "loadgen: %.0f connections, late p99 %.3f ms, %.0f in flight at most\n",
		u.m["loadgen.conns"], u.m["loadgen.late_p99_ms"], u.m["loadgen.max_inflight"])
	res, defs := u, endToEnd
	if traced {
		t, err := runPass(makePlan(w, seed, seconds, true), passOpts{seed: seed, traced: true, setups: setups, ladder: true, spans: spans})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		for _, d := range endToEnd {
			t.m[overheadName(d.name)] = t.m[d.name] - u.m[d.name]
		}
		// Per-op latencies and goodput are end-to-end numbers: take them
		// untraced.
		for k, v := range u.m {
			if strings.HasPrefix(k, "op.") || k == "loadgen.goodput_rps" {
				t.m[k] = v
			}
		}
		t.attempted += u.attempted
		t.failed += u.failed
		t.violations += u.violations
		res, defs = t, perLayer
	}
	if err := report(res, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if res.violations > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d correctness violations\n", res.violations)
		return 1
	}
	return 0
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of defs as a table on standard error and as
// the final JSON line on standard output.
func report(res *passResult, defs []metricDef) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{res.violations == 0, res.attempted, res.failed, make(map[string]metricJSON, len(defs))}
	for _, d := range defs {
		v := res.m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricJSON{v, d.unit}
		fmt.Fprintf(os.Stderr, "%-40s %14.4f %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
