package memkv

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core"
)

// startShards launches n live servers and returns a ShardedClient over
// multiplexed clients to them, plus the servers by address.
func startShards(t *testing.T, n int, cfg ShardedConfig) (*ShardedClient, map[string]*Server) {
	t.Helper()
	servers := make(map[string]*Server, n)
	clients := make([]Backend, n)
	for i := 0; i < n; i++ {
		srv, addr := startServer(t)
		servers[addr] = srv
		clients[i] = NewMuxClient(addr, 2*time.Second)
	}
	sc := NewShardedClient(cfg, clients...)
	t.Cleanup(func() { sc.Close() })
	return sc, servers
}

// startDelayedShards is startShards with a per-shard Delay hook, given
// the shard's index, installed before Listen.
func startDelayedShards(t *testing.T, cfg ShardedConfig, delays ...func() time.Duration) (*ShardedClient, []*Server, []*MuxClient) {
	t.Helper()
	servers := make([]*Server, len(delays))
	muxes := make([]*MuxClient, len(delays))
	clients := make([]Backend, len(delays))
	for i, d := range delays {
		srv, addr := startServerDelay(t, d)
		servers[i] = srv
		muxes[i] = NewMuxClient(addr, 10*time.Second)
		clients[i] = muxes[i]
	}
	sc := NewShardedClient(cfg, clients...)
	t.Cleanup(func() { sc.Close() })
	return sc, servers, muxes
}

// put writes one key with PutVersioned, failing the test on error.
func put(t *testing.T, sc *ShardedClient, key, value string) uint64 {
	t.Helper()
	ver, err := sc.PutVersioned(context.Background(), key, []byte(value), 0)
	if err != nil {
		t.Fatalf("PutVersioned(%q): %v", key, err)
	}
	return ver
}

// putAll writes keys[i] = vals[i] with PutVersioned, every write in
// flight at once, and returns each write's error.
func putAll(ctx context.Context, sc *ShardedClient, keys []string, vals [][]byte) []error {
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sc.PutVersioned(ctx, keys[i], vals[i], 0)
		}(i)
	}
	wg.Wait()
	return errs
}

func TestShardedSetGetRoundTrip(t *testing.T) {
	sc, _ := startShards(t, 4, ShardedConfig{})
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%d", i)
		put(t, sc, key, "v-"+key)
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%d", i)
		got, err := sc.Get(ctx, key)
		if err != nil {
			t.Fatalf("Get(%q): %v", key, err)
		}
		if string(got) != "v-"+key {
			t.Errorf("Get(%q) = %q, want %q", key, got, "v-"+key)
		}
	}
	if _, err := sc.Get(ctx, "absent"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(absent) = %v, want ErrNotFound", err)
	}
}

// Writes land only on the key's placement shards: the data is
// partitioned, not fully replicated.
func TestShardedPlacementIsPartial(t *testing.T) {
	sc, servers := startShards(t, 5, ShardedConfig{Replication: 2})
	key := "user:42"
	put(t, sc, key, "x")
	owners := sc.Owners(key)
	if len(owners) != 2 {
		t.Fatalf("Owners(%q) = %v, want 2", key, owners)
	}
	isOwner := map[string]bool{owners[0]: true, owners[1]: true}
	for addr, srv := range servers {
		_, _, ok := srv.Store().Get(key)
		if ok != isOwner[addr] {
			t.Errorf("shard %s has key = %v, want %v (owners %v)", addr, ok, isOwner[addr], owners)
		}
	}
}

// The paper's redundant read in the live stack: the key's primary is
// stalled, the secondary's response wins, and a fan-out-1 read has to
// wait the stall out.
func TestShardedRedundantGetDodgesSlowPrimary(t *testing.T) {
	// Every server gets a Delay hook before Listen (the Server contract);
	// each stalls only once its own flag flips, so the test can stall the
	// primary race-free after discovering which shard that is.
	const stall = 250 * time.Millisecond
	flags := make([]*atomic.Bool, 3)
	delays := make([]func() time.Duration, 3)
	for i := range delays {
		flag := &atomic.Bool{}
		flags[i] = flag
		delays[i] = func() time.Duration {
			if flag.Load() {
				return stall
			}
			return 0
		}
	}
	sc, _, muxes := startDelayedShards(t, ShardedConfig{Replication: 2}, delays...)
	ctx := context.Background()

	key := "hot"
	put(t, sc, key, "payload")
	for i, m := range muxes {
		if m.Addr() == sc.Owners(key)[0] {
			flags[i].Store(true)
		}
	}

	res, err := sc.GetResult(ctx, key)
	if err != nil || string(res.Value) != "payload" {
		t.Fatalf("redundant Get = %q, %v", res.Value, err)
	}
	if res.Latency >= stall {
		t.Errorf("redundant Get took %v, want the secondary to win well before the %v stall", res.Latency, stall)
	}
	if res.Launched != 2 || res.Index != 1 {
		t.Errorf("Launched/Index = %d/%d, want 2 copies with the secondary winning", res.Launched, res.Index)
	}

	start := time.Now()
	if _, err := sc.Get(ctx, key, core.WithFanoutCap(1)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Errorf("fan-out-1 Get took %v, want it to wait out the %v primary stall", elapsed, stall)
	}
}

// A write quorum below the replication factor survives a down shard, and
// a subsequent redundant read still answers from the survivors.
func TestShardedQuorumPutSurvivesDownShard(t *testing.T) {
	sc, servers := startShards(t, 4, ShardedConfig{Replication: 3, WriteQuorum: 2})
	ctx := context.Background()
	key := "survivor"
	servers[sc.Owners(key)[0]].Close() // kill the primary

	put(t, sc, key, "still here")
	got, err := sc.Get(ctx, key)
	if err != nil || string(got) != "still here" {
		t.Fatalf("Get after quorum put = %q, %v", got, err)
	}

	// Two of three placement shards down: the quorum is unreachable and
	// the failure is typed.
	servers[sc.Owners(key)[1]].Close()
	_, err = sc.PutVersioned(ctx, key, []byte("lost"), 0)
	if !errors.Is(err, core.ErrQuorumUnreachable) {
		t.Errorf("put with 2 of 3 placement shards down = %v, want ErrQuorumUnreachable", err)
	}
}

// Removing a shard remaps its keys; a re-put under the new topology
// restores read availability for them.
func TestShardedRemoveShardRemaps(t *testing.T) {
	sc, _ := startShards(t, 4, ShardedConfig{Replication: 2})
	ctx := context.Background()
	key := "mover"
	put(t, sc, key, "v1")
	victim := sc.Owners(key)[0]
	if !sc.RemoveShard(victim) {
		t.Fatalf("RemoveShard(%s) = false", victim)
	}
	if sc.RemoveShard(victim) {
		t.Error("second RemoveShard = true, want false")
	}
	after := sc.Owners(key)
	for _, o := range after {
		if o == victim {
			t.Fatalf("Owners(%q) = %v still includes removed shard %s", key, after, victim)
		}
	}
	// The old secondary is the new primary, so the key stays readable
	// without any migration; the re-put fills the new secondary.
	if got, err := sc.Get(ctx, key); err != nil || string(got) != "v1" {
		t.Fatalf("Get after removal = %q, %v (old secondary should still serve)", got, err)
	}
	put(t, sc, key, "v2")
	if got, err := sc.Get(ctx, key); err != nil || string(got) != "v2" {
		t.Fatalf("Get after re-put = %q, %v", got, err)
	}
}

func TestShardedWriteQuorumClampsToShards(t *testing.T) {
	sc, _ := startShards(t, 1, ShardedConfig{Replication: 3, WriteQuorum: 3})
	// One shard exists: the quorum clamps to it rather than failing.
	put(t, sc, "k", "v")
	if got, err := sc.Get(context.Background(), "k"); err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestShardedRingStats(t *testing.T) {
	sc, _ := startShards(t, 3, ShardedConfig{})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%d", i)
		put(t, sc, key, "v")
		if _, err := sc.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	st := sc.RingStats()
	if len(st.Members) != 3 {
		t.Fatalf("RingStats members = %d, want 3", len(st.Members))
	}
	sum := 0.0
	for _, m := range st.Members {
		sum += m.KeyShare
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("key shares sum to %g, want 1", sum)
	}
}

// With Replication equal to the shard count every key lives on every
// shard, so a ReadQuorum(2) read over three shards needs 2-of-3
// agreement: it carries per-copy outcomes, survives one dead shard, and
// fails typed, with named per-shard detail, when two are down.
func TestShardedReadQuorum(t *testing.T) {
	sc, servers := startShards(t, 3, ShardedConfig{Replication: 3, ReadStrategy: core.Fixed{Copies: 3}})
	ctx := context.Background()
	put(t, sc, "k", "v")

	var outs []core.Outcome[[]byte]
	res, err := sc.GetResult(ctx, "k", ReadQuorum(2), core.WithCollectOutcomes(&outs))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "v" {
		t.Errorf("value %q", res.Value)
	}
	wins := 0
	for _, o := range outs {
		if o.Err == nil {
			wins++
			if string(o.Value) != "v" {
				t.Errorf("quorum outcome value %q", o.Value)
			}
		}
	}
	if wins != 2 {
		t.Errorf("quorum read collected %d wins, want 2", wins)
	}

	owners := sc.Owners("k")
	servers[owners[0]].Close() // one dead shard: 2-of-3 still reachable
	if _, err := sc.Get(ctx, "k", ReadQuorum(2)); err != nil {
		t.Fatalf("quorum read with one dead shard: %v", err)
	}

	servers[owners[1]].Close() // two dead: 2-of-3 unreachable
	_, err = sc.Get(ctx, "k", ReadQuorum(2))
	if !errors.Is(err, core.ErrQuorumUnreachable) {
		t.Fatalf("got %v, want ErrQuorumUnreachable", err)
	}
	var re core.ReplicaError
	if !errors.As(err, &re) || re.Name == "" {
		t.Errorf("quorum failure lacks named shard detail: %v", err)
	}
}

// A fully replicated read over a slow and a fast shard launches both
// copies and returns the fast one's answer without waiting for the slow.
func TestReplicatedClientFirstWins(t *testing.T) {
	sc, _, _ := startDelayedShards(t, ShardedConfig{Replication: 2},
		func() time.Duration { return 300 * time.Millisecond }, nil)
	ctx := context.Background()
	put(t, sc, "k", "v")

	start := time.Now()
	res, err := sc.GetResult(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "v" {
		t.Errorf("value %q", res.Value)
	}
	if time.Since(start) > 250*time.Millisecond {
		t.Errorf("replicated read waited for the slow shard: %v", time.Since(start))
	}
	if res.Launched != 2 {
		t.Errorf("Launched = %d", res.Launched)
	}
}

// A fully replicated read still answers when one of its two shards is
// dead.
func TestReplicatedClientSurvivesDeadReplica(t *testing.T) {
	sc, servers := startShards(t, 2, ShardedConfig{Replication: 2})
	ctx := context.Background()
	put(t, sc, "k", "v")

	servers[sc.Owners("k")[0]].Close() // kill one replica
	v, err := sc.Get(ctx, "k")
	if err != nil {
		t.Fatalf("replicated read failed with one dead replica: %v", err)
	}
	if string(v) != "v" {
		t.Errorf("value %q", v)
	}
}

// Per-read options tune one read without touching the shared client: a
// labelled, fan-out-capped read launches one copy and is counted under
// its label.
func TestShardedPerReadLabelAndCap(t *testing.T) {
	ctr := core.NewCounters()
	sc, _ := startShards(t, 2, ShardedConfig{Replication: 2, Observer: ctr})
	put(t, sc, "k", "v")
	res, err := sc.GetResult(context.Background(), "k", core.WithFanoutCap(1), core.WithLabel("prefetch"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 1 {
		t.Errorf("capped read launched %d copies, want 1", res.Launched)
	}
	ls, ok := ctr.LabelSnapshot("prefetch")
	if !ok || ls.Ops != 1 || ls.Launched != 1 {
		t.Errorf("prefetch class = %+v (found %v), want 1 op with 1 copy", ls, ok)
	}
}

// End-to-end copy cancellation: a fast and a stalled shard, both
// holding the key, full fan-out. The fast shard wins, the loser is
// cancelled in flight without waiting out the stall, and the ring's
// stats record the reclaimed copy against the slow shard.
func TestShardedCancelsLosingCopy(t *testing.T) {
	sc, _, muxes := startDelayedShards(t, ShardedConfig{Replication: 2},
		nil, func() time.Duration { return time.Minute })
	ctx := context.Background()
	// Seed the fast shard directly: a versioned put would wait out the
	// slow shard's stall.
	if _, _, err := muxes[0].PutV(ctx, "k", []byte("v"), 0, 1); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	res, err := sc.GetResult(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "v" {
		t.Errorf("value %q", res.Value)
	}
	if res.Launched != 2 || res.Cancelled != 1 {
		t.Errorf("Launched/Cancelled = %d/%d, want 2/1", res.Launched, res.Cancelled)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("read took %v; the stalled shard was waited out", el)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		for _, m := range sc.RingStats().Members {
			if m.Name == muxes[1].Addr() && m.Cancelled >= 1 {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("slow shard recorded no cancelled copy: %+v", sc.RingStats().Members)
}

// An adaptive-hedge read strategy over a fast and a slow shard: cold
// digests fan out fully, the digests warm with use, the ring's stats
// are self-describing, and SetReadStrategy swaps the policy under live
// reads.
func TestShardedAdaptiveHedgeRead(t *testing.T) {
	sc, _, _ := startDelayedShards(t, ShardedConfig{
		Replication:  2,
		ReadStrategy: core.AdaptiveHedge{Copies: 2, Quantile: 0.95, Selection: core.SelectRanked},
	}, nil, func() time.Duration { return 200 * time.Millisecond })
	ctx := context.Background()
	put(t, sc, "k", "v")

	res, err := sc.GetResult(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "v" {
		t.Errorf("value %q", res.Value)
	}
	if res.Launched != 2 {
		t.Errorf("cold adaptive read launched %d copies, want 2 (immediate fallback)", res.Launched)
	}
	for i := 0; i < 30; i++ {
		if _, err := sc.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	st := sc.RingStats()
	if !strings.Contains(st.Strategy, "adaptive-hedge") || !strings.Contains(st.Strategy, "p95") {
		t.Errorf("RingStats.Strategy = %q", st.Strategy)
	}
	warm := false
	for _, m := range st.Members {
		if m.Observations >= 16 && m.P95 > 0 && m.P50 <= m.P95 {
			warm = true
		}
	}
	if !warm {
		t.Errorf("no shard digest warmed past MinSamples: %+v", st.Members)
	}

	sc.SetReadStrategy(core.FullReplicate{})
	res, err = sc.GetResult(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 {
		t.Errorf("full replication launched %d copies", res.Launched)
	}
	if got := sc.RingStats().Strategy; !strings.Contains(got, "full-replicate") {
		t.Errorf("after SetReadStrategy: %q", got)
	}
}

// Two independent writers — separate ShardedClients with their own
// version clocks and shard connections — race PutVersioned on the same
// keys. Client-minted versions and last-writer-wins must leave every
// owner of a key holding the same (version, value), whatever order the
// copies of racing writes reached each replica in.
func TestShardedConcurrentWritersConverge(t *testing.T) {
	const shards, keys, rounds = 3, 64, 4
	addrs := make([]string, shards)
	for i := range addrs {
		_, addrs[i] = startServer(t)
	}
	newWriter := func() *ShardedClient {
		clients := make([]Backend, shards)
		for i, a := range addrs {
			clients[i] = NewMuxClient(a, 5*time.Second)
		}
		sc := NewShardedClient(ShardedConfig{}, clients...)
		t.Cleanup(func() { sc.Close() })
		return sc
	}
	writers := []*ShardedClient{newWriter(), newWriter()}
	ctx := context.Background()

	var wg sync.WaitGroup
	for w, sc := range writers {
		wg.Add(1)
		go func(w int, sc *ShardedClient) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("shared-%d", k)
					val := []byte(fmt.Sprintf("w%d-r%d", w, r))
					if _, err := sc.PutVersioned(ctx, key, val, 0); err != nil {
						t.Errorf("writer %d put %s: %v", w, key, err)
						return
					}
				}
			}
		}(w, sc)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The default write quorum is every placement copy, so each put's
	// copies have all landed by the time the writers return.
	sc := writers[0]
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("shared-%d", k)
		var first string
		var firstVer uint64
		for i, owner := range sc.Owners(key) {
			val, ver, _, err := sc.VersionedShard(owner).GetV(ctx, key)
			if err != nil {
				t.Fatalf("%s on %s: %v", key, owner, err)
			}
			if i == 0 {
				first, firstVer = string(val), ver
				continue
			}
			if ver != firstVer || string(val) != first {
				t.Errorf("%s diverged: %s holds (%d, %q), primary holds (%d, %q)", key, owner, ver, val, firstVer, first)
			}
		}
	}
}
