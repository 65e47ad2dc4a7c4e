// kvreplica: replicated reads against two live memkv servers over real
// TCP, reproducing the paper's storage-service scenario (§2.2) in
// miniature: one replica suffers latency spikes; the replicated client's
// tail latency tracks the healthy replica. The replicated client is a
// ShardedClient whose replication equals its shard count, so every key
// lives on both servers and every read races both copies.
//
// Run with: go run ./examples/kvreplica
package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"redundancy"
	"redundancy/internal/memkv"
)

func main() {
	// Two in-process servers: replica A degrades with occasional 50 ms
	// stalls (a disk hiccup, a GC pause); replica B is healthy.
	// The hook runs on every connection's serve loop, so the shared rng
	// is locked.
	var mu sync.Mutex
	r := rand.New(rand.NewSource(1))
	srvA := memkv.NewServer(nil)
	srvA.Delay = func() time.Duration {
		mu.Lock()
		stall := r.Float64() < 0.15
		mu.Unlock()
		if stall {
			return 50 * time.Millisecond
		}
		return time.Millisecond
	}
	srvB := memkv.NewServer(nil)
	srvB.Delay = func() time.Duration { return 2 * time.Millisecond }

	addrA, err := srvA.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srvA.Close()
	addrB, err := srvB.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srvB.Close()

	clA := memkv.NewMuxClient(addrA.String(), time.Second)
	clB := memkv.NewMuxClient(addrB.String(), time.Second)
	both := memkv.NewShardedClient(memkv.ShardedConfig{
		Replication:  2, // = shard count: every key on both servers
		ReadStrategy: redundancy.Policy{Copies: 2}.Strategy(),
	}, clA, clB)
	defer both.Close()
	ctx := context.Background()

	// Store a value everywhere (a versioned write acked by both copies).
	if _, err := both.PutVersioned(ctx, "user:42", []byte(`{"name":"ada"}`), 0); err != nil {
		panic(err)
	}

	measure := func(name string, get func() error) {
		const n = 200
		lat := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := get(); err != nil {
				panic(err)
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		var total time.Duration
		for _, d := range lat {
			total += d
		}
		fmt.Printf("%-22s mean %-8v p50 %-8v p95 %-8v p99 %v\n", name,
			(total / n).Round(100*time.Microsecond),
			lat[n/2].Round(100*time.Microsecond),
			lat[n*95/100].Round(100*time.Microsecond),
			lat[n*99/100].Round(100*time.Microsecond))
	}

	fmt.Println("reading user:42 200 times through each client:")
	measure("replica A only", func() error {
		_, err := clA.Get(ctx, "user:42")
		return err
	})
	measure("replicated (A + B)", func() error {
		_, err := both.Get(ctx, "user:42")
		return err
	})
	fmt.Println("\nThe replicated reader's p95/p99 ignore replica A's stalls —")
	fmt.Println("the fast copy masks the slow one (paper §2.2's tail result).")

	// The copy-on-write engine tracks per-replica latency estimates and
	// supports membership changes while reads are in flight: inspect the
	// estimates, then decommission the degraded replica without building
	// a new client.
	fmt.Println("\nper-replica latency estimates (EWMA of successful reads):")
	for _, r := range both.RingStats().Members {
		fmt.Printf("  %-22s %-10v (%d observations)\n",
			r.Name, r.EstimatedLatency.Round(100*time.Microsecond), r.Observations)
	}

	fmt.Println("\ndecommissioning the degraded replica A:")
	both.RemoveShard(addrA.String())
	measure("replicated (B only)", func() error {
		_, err := both.Get(ctx, "user:42")
		return err
	})
}
