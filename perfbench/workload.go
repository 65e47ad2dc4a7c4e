package main

import (
	"fmt"
	"time"
)

// opKind is one request type the load generator sends to the gateway.
type opKind uint8

const (
	opGet  opKind = iota // hedged GET /kv/{key}
	opPut                // versioned PUT /kv/{key}
	opQGet               // GET /kv/{key} with X-Consistency: quorum
	opCAS                // PUT /kv/{key} with X-Expect-Version
	opScan               // GET /scan
	numOps
)

var opNames = [numOps]string{"get", "put", "qget", "cas", "scan"}

func (o opKind) String() string { return opNames[o] }

// workload is one named traffic mix over one stack shape. Every field is
// fixed here; only the seed varies between runs.
type workload struct {
	name string
	why  string

	shards   int
	keys     int
	hotKeys  int // keys written only by CAS (the first hotKeys keys)
	valueMin int // value sizes are uniform in [valueMin, valueMax]
	valueMax int

	// disk, when set, puts an emulated FCFS disk behind every shard's
	// Delay hook.
	disk *diskModel

	// target is the gateway's SLO p99 target and the latency limit the
	// goodput ladder is judged against.
	target time.Duration

	// mix weights the op kinds of every phase.
	mix [numOps]float64
	// readOp is the op whose latency the read_* metrics report.
	readOp opKind

	// baseRate is the offered rate (req/s) of the warm-up and measured
	// base window; ladder is the ascending offered rates of the goodput
	// rungs.
	baseRate float64
	ladder   []float64

	// watchers is the number of /watch streams open during the base
	// window; their prefixes partition the keyspace.
	watchers int
}

// scanLimit is the page size of every /scan request.
const scanLimit = 20

// keyPartitions is how many prefixes the keyspace is split into; watchers
// subscribe to whole partitions.
const keyPartitions = 4

// keyName is the key with index i: "p<i mod 4>/<i>", so a prefix watch on
// "p<n>/" sees exactly one partition.
func keyName(i int) string { return fmt.Sprintf("p%d/%07d", i%keyPartitions, i) }

var workloads = []*workload{
	{
		name:     "disk-tail",
		why:      "paper regime: hedged GETs over emulated FCFS disks with heavy-tailed seeks; slo, governor, hedging and the disk queues do the work while CPU layers idle",
		shards:   5,
		keys:     10000,
		valueMin: 4096,
		valueMax: 4096,
		disk:     &diskModel{hit: 250 * time.Microsecond, miss: 0.15, seekMean: 8 * time.Millisecond, seekCV: 0.65, bytesPerSec: 60e6},
		// Between the p99 of one copy (21.5 ms) and of two (12.5 ms) at
		// the lowest rung, 300 req/s, as --probe measured them on a
		// 2-vCPU Xeon VM.
		target:   17 * time.Millisecond,
		mix:      [numOps]float64{opGet: 1},
		readOp:   opGet,
		baseRate: 450,
		ladder:   []float64{300, 450, 600, 750, 900, 1100, 1300},
	},
	{
		name:     "mem-read",
		why:      "Figs. 12-13 regime: in-memory shards with us service, 90% hedged GET / 10% PUT; per-copy client cost (HTTP, engine, mux, GC) sets latency and capacity",
		shards:   3,
		keys:     100000,
		valueMin: 512,
		valueMax: 512,
		// Loose enough that one copy meets it: the controller holds k=1.
		target:   20 * time.Millisecond,
		mix:      [numOps]float64{opGet: 0.9, opPut: 0.1},
		readOp:   opGet,
		baseRate: 1500,
		ladder:   []float64{2000, 4000, 6000, 8000, 10000, 12000, 14000, 16000},
	},
	{
		name:     "write-watch",
		why:      "write paths: versioned PUT, quorum GET, CAS on hot keys, scan pages and prefix watches over in-memory shards; a read-path change should not move it",
		shards:   3,
		keys:     20000,
		hotKeys:  64,
		valueMin: 64,
		valueMax: 4096,
		target:   50 * time.Millisecond, // cmd/gateway's default
		mix:      [numOps]float64{opPut: 0.45, opQGet: 0.30, opCAS: 0.20, opScan: 0.05},
		readOp:   opQGet,
		baseRate: 500,
		ladder:   []float64{800, 1600, 2400, 3200, 4000, 4800, 5600, 6400},
		watchers: keyPartitions,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
