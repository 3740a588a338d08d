package telemetry_test

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/fine"
	"github.com/namdb/rdmatree/internal/deploy"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/retry"
	"github.com/namdb/rdmatree/internal/rdma/tcpnet"
	"github.com/namdb/rdmatree/internal/telemetry"
	"github.com/namdb/rdmatree/internal/workload"
)

// driveIndex runs a fixed mixed script against idx and returns a transcript
// of every result, so two runs can be compared byte for byte.
func driveIndex(t *testing.T, idx core.Index) string {
	t.Helper()
	var b strings.Builder
	for k := uint64(0); k < 400; k += 7 {
		vals, err := idx.Lookup(k)
		fmt.Fprintf(&b, "get %d -> %v %v\n", k, vals, err)
	}
	for k := uint64(1000); k < 1050; k++ {
		fmt.Fprintf(&b, "put %d %v\n", k, idx.Insert(k, k*3))
	}
	for k := uint64(1000); k < 1020; k++ {
		ok, err := idx.Delete(k, k*3)
		fmt.Fprintf(&b, "del %d %v %v\n", k, ok, err)
	}
	err := idx.Range(50, 90, func(k, v uint64) bool {
		fmt.Fprintf(&b, "scan %d %d\n", k, v)
		return true
	})
	fmt.Fprintf(&b, "range %v\n", err)
	return b.String()
}

func buildFineDirect(t *testing.T, servers, n, page int) (*direct.Fabric, *nam.Catalog) {
	t.Helper()
	fab := direct.New(servers, 64<<20, nam.SuperblockBytes)
	cat, err := fine.Build(fab.Endpoint(), fine.Options{Layout: layout.New(page)},
		core.BuildSpec{N: n, At: workload.DataItem, HeadEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	return fab, cat
}

// legacyClient is a fine-grained client over ep on the paper's Listing-2
// read path: two blocking READs per level.
func legacyClient(t *testing.T, ep rdma.Endpoint, cat *nam.Catalog) core.Index {
	t.Helper()
	cl, err := deploy.Attach(cat).Client(deploy.ClientOptions{Ep: ep, Env: direct.Env{}, LegacyReads: true})
	if err != nil {
		t.Fatal(err)
	}
	return cl.Serial
}

// TestConformanceDirect checks that the telemetry decorator is functionally
// invisible on the direct transport: the same operation script produces a
// byte-identical transcript with and without instrumentation.
func TestConformanceDirect(t *testing.T) {
	fab, cat := buildFineDirect(t, 2, 5000, 512)
	plain := driveIndex(t, fine.NewClient(fab.Endpoint(), direct.Env{}, cat, 0))

	fab2, cat2 := buildFineDirect(t, 2, 5000, 512)
	rec := telemetry.NewRecorder(2)
	ep := telemetry.Wrap(fab2.Endpoint(), rec, nil)
	instr := driveIndex(t, fine.NewClient(ep, direct.Env{}, cat2, 0))

	if plain != instr {
		t.Fatalf("instrumented run diverged:\nplain:\n%s\ninstrumented:\n%s", plain, instr)
	}
	if rec.VerbOps(telemetry.VerbRead) == 0 {
		t.Fatal("no READs recorded")
	}
	if rec.VerbOps(telemetry.VerbCall) != 0 {
		t.Fatal("fine-grained client issued two-sided CALLs")
	}
	if rec.VerbBytes(telemetry.VerbRead) == 0 {
		t.Fatal("no READ bytes recorded")
	}
}

// TestConformanceTCP repeats the decorator-invisibility check over real TCP
// connections to in-process memory-server agents.
func TestConformanceTCP(t *testing.T) {
	runScript := func(rec *telemetry.Recorder) string {
		var addrs []string
		for i := 0; i < 2; i++ {
			srv := rdma.NewServer(i, 64<<20, nam.SuperblockBytes)
			agent := tcpnet.NewAgent(srv, nil)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, l.Addr().String())
			go agent.Serve(l)
			t.Cleanup(agent.Close)
		}
		setup := tcpnet.Dial(addrs)
		cat, err := fine.Build(setup, fine.Options{Layout: layout.New(1024)},
			core.BuildSpec{N: 2000, At: workload.DataItem, HeadEvery: 16})
		setup.Close()
		if err != nil {
			t.Fatal(err)
		}
		tep := tcpnet.Dial(addrs)
		t.Cleanup(tep.Close)
		var ep rdma.Endpoint = tep
		if rec != nil {
			ep = telemetry.Wrap(tep, rec, nil)
		}
		return driveIndex(t, fine.NewClient(ep, rdma.NopEnv{}, cat, 0))
	}

	plain := runScript(nil)
	rec := telemetry.NewRecorder(2)
	instr := runScript(rec)
	if plain != instr {
		t.Fatalf("instrumented TCP run diverged:\nplain:\n%s\ninstrumented:\n%s", plain, instr)
	}
	if rec.VerbOps(telemetry.VerbRead) == 0 {
		t.Fatal("no READs recorded over TCP")
	}
	if rec.VerbLatency(telemetry.VerbRead).Max() <= 0 {
		t.Fatal("wall-clock READ latency not recorded")
	}
}

// TestListing2VerbSequence pins the fused consistent-read protocol on a
// 3-level tree: with a warm root pointer, a fine-grained point lookup visits
// each level exactly once, and each visit is ONE selectively-signalled
// READ_MULTI batch carrying [page, version word] — nothing else. A no-split
// insert adds the lock CAS and one doorbell carrying the body WRITE and the
// unlock FAA. Both hold on the bare endpoint and under the retry ring. The
// legacy unbatched client must still produce the paper's original Listing-2
// sequence of 2·height plain READs, and publish in two rounds, also pinned
// here.
func TestListing2VerbSequence(t *testing.T) {
	for _, name := range []string{"bare", "retry"} {
		t.Run(name, func(t *testing.T) { listing2VerbSequence(t, name == "retry") })
	}
}

func listing2VerbSequence(t *testing.T, retried bool) {
	const page, n = 512, 12000
	fab, cat := buildFineDirect(t, 1, n, page)
	rec := telemetry.NewRecorder(1)
	te := telemetry.Wrap(fab.Endpoint(), rec, nil)
	var ep rdma.Endpoint = te
	if retried {
		ep = retry.Wrap(te, &retry.Policy{})
	}
	c := fine.NewClient(ep, direct.Env{}, cat, 0)
	h, err := c.Tree().Height(direct.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if h != 3 {
		t.Fatalf("tree height %d, want 3 (adjust page=%d / n=%d)", h, page, n)
	}
	if _, err := c.Lookup(1); err != nil { // warm the root pointer
		t.Fatal(err)
	}

	// Pick a key whose lookup is "clean": no right-moves past outgrown
	// fences and no duplicate spill into the next leaf, so the descent is
	// exactly one page per level.
	key := uint64(0)
	for k := uint64(n / 3); k < uint64(n/3)+100; k++ {
		_, st, err := c.Tree().Lookup(direct.Env{}, k)
		if err != nil {
			t.Fatal(err)
		}
		if st.Depth == h && st.PageReads == h {
			key = k
			break
		}
	}
	if key == 0 {
		t.Fatal("no clean key found")
	}

	fresh := telemetry.NewRecorder(1)
	te.Rec = fresh
	c.SetRecorder(fresh)
	vals, err := c.Lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) == 0 {
		t.Fatalf("key %d not found", key)
	}

	want := int64(h)
	if got := fresh.VerbOps(telemetry.VerbReadMulti); got != want {
		t.Fatalf("lookup issued %d READ_MULTI batches, want %d (1 fused [page,version] batch per level on a height-%d tree)", got, want, h)
	}
	for v := telemetry.Verb(0); v < telemetry.NumVerbs; v++ {
		if v == telemetry.VerbReadMulti {
			continue
		}
		if got := fresh.VerbOps(v); got != 0 {
			t.Fatalf("lookup issued %d unexpected %v verbs", got, v)
		}
	}
	// Each batch carries the page plus the 8-byte version word.
	if got, want := fresh.VerbBytes(telemetry.VerbReadMulti), int64(h*(page+8)); got != want {
		t.Fatalf("lookup transferred %d bytes, want %d", got, want)
	}
	idx := fresh.StatsMap()["index"].(map[string]any)
	if idx["ops"].(int64) != 1 {
		t.Fatalf("index ops = %v, want 1", idx["ops"])
	}
	if d := idx["avg_depth"].(float64); d != float64(h) {
		t.Fatalf("recorded depth %v, want %d", d, h)
	}
	// ExposedRTTs must equal depth for a clean warm-root lookup: one fused
	// round trip per level (was 2·depth under the unbatched protocol).
	if r := idx["exposed_rtts"].(int64); r != int64(h) {
		t.Fatalf("exposed RTTs = %d, want %d", r, h)
	}

	// A no-split insert under the same key: the same fused read per level,
	// then one lock CAS on the version the descent validated (the leaf is not
	// re-read), the body WRITE and the unlock-and-bump FAA — nothing else.
	fresh = telemetry.NewRecorder(1)
	te.Rec = fresh
	c.SetRecorder(fresh)
	if err := c.Insert(key, 1<<40); err != nil {
		t.Fatal(err)
	}
	for v := telemetry.Verb(0); v < telemetry.NumVerbs; v++ {
		want := int64(0)
		switch v {
		case telemetry.VerbReadMulti:
			want = int64(h)
		case telemetry.VerbCAS, telemetry.VerbWrite, telemetry.VerbFetchAdd:
			want = 1
		}
		if got := fresh.VerbOps(v); got != want {
			t.Fatalf("no-split insert issued %d %v verbs, want %d", got, v, want)
		}
	}
	idx = fresh.StatsMap()["index"].(map[string]any)
	if r := idx["page_reads"].(int64); r != int64(h) {
		t.Fatalf("insert page reads = %d, want %d", r, h)
	}
	// The body WRITE and the unlock FAA share one doorbell, so the insert
	// is one round shorter than Listing 3's sequence of blocking verbs.
	if f := fresh.PipelineFlushes(); f != 1 {
		t.Fatalf("insert rang %d doorbells, want 1 (the WRITE+FAA pair)", f)
	}
	if r := idx["exposed_rtts"].(int64); r != int64(h+2) {
		t.Fatalf("insert exposed RTTs = %d, want %d", r, h+2)
	}
	if s := idx["splits"].(int64); s != 0 {
		t.Fatalf("insert split %d pages; pick a key whose leaf has room", s)
	}

	// The unbatched baseline client still runs the paper's original verb
	// sequence: two plain READs per level, no batches.
	fab2, cat2 := buildFineDirect(t, 1, n, page)
	rec2 := telemetry.NewRecorder(1)
	ep2 := telemetry.Wrap(fab2.Endpoint(), rec2, nil)
	c2 := legacyClient(t, ep2, cat2)
	if _, err := c2.Lookup(1); err != nil { // warm the root pointer
		t.Fatal(err)
	}
	fresh2 := telemetry.NewRecorder(1)
	ep2.Rec = fresh2
	vals2, err := c2.Lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals2) == 0 {
		t.Fatalf("key %d not found via unbatched client", key)
	}
	if got, want := fresh2.VerbOps(telemetry.VerbRead), int64(2*h); got != want {
		t.Fatalf("unbatched lookup issued %d READs, want %d (2 per level)", got, want)
	}
	if got := fresh2.VerbOps(telemetry.VerbReadMulti); got != 0 {
		t.Fatalf("unbatched lookup issued %d READ_MULTI batches, want 0", got)
	}
	// Its insert publishes with two blocking verbs, no doorbell.
	fresh2 = telemetry.NewRecorder(1)
	ep2.Rec = fresh2
	if err := c2.Insert(key, 1<<41); err != nil {
		t.Fatal(err)
	}
	if w, f := fresh2.VerbOps(telemetry.VerbWrite), fresh2.VerbOps(telemetry.VerbFetchAdd); w != 1 || f != 1 {
		t.Fatalf("unbatched insert issued %d WRITEs and %d FAAs, want 1 and 1", w, f)
	}
	if f := fresh2.PipelineFlushes(); f != 0 {
		t.Fatalf("unbatched insert rang %d doorbells, want 0", f)
	}
}

// TestFusedLegacyByteIdentical asserts the fused (doorbell-batched) and
// legacy (two-READ) read paths are observationally equivalent: the same
// operation script yields byte-identical transcripts on both the direct and
// TCP transports. Run with -race this also exercises the batched path for
// data races.
func TestFusedLegacyByteIdentical(t *testing.T) {
	t.Run("direct", func(t *testing.T) {
		fab, cat := buildFineDirect(t, 2, 5000, 512)
		fused := driveIndex(t, fine.NewClient(fab.Endpoint(), direct.Env{}, cat, 0))

		fab2, cat2 := buildFineDirect(t, 2, 5000, 512)
		legacy := driveIndex(t, legacyClient(t, fab2.Endpoint(), cat2))

		if fused != legacy {
			t.Fatalf("fused and legacy read paths diverged:\nfused:\n%s\nlegacy:\n%s", fused, legacy)
		}
	})
	t.Run("tcpnet", func(t *testing.T) {
		runScript := func(unbatched bool) string {
			var addrs []string
			for i := 0; i < 2; i++ {
				srv := rdma.NewServer(i, 64<<20, nam.SuperblockBytes)
				agent := tcpnet.NewAgent(srv, nil)
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				addrs = append(addrs, l.Addr().String())
				go agent.Serve(l)
				t.Cleanup(agent.Close)
			}
			setup := tcpnet.Dial(addrs)
			cat, err := fine.Build(setup, fine.Options{Layout: layout.New(1024)},
				core.BuildSpec{N: 2000, At: workload.DataItem, HeadEvery: 16})
			setup.Close()
			if err != nil {
				t.Fatal(err)
			}
			ep := tcpnet.Dial(addrs)
			t.Cleanup(ep.Close)
			if unbatched {
				return driveIndex(t, legacyClient(t, ep, cat))
			}
			return driveIndex(t, fine.NewClient(ep, rdma.NopEnv{}, cat, 0))
		}
		fused := runScript(false)
		legacy := runScript(true)
		if fused != legacy {
			t.Fatalf("fused and legacy TCP read paths diverged:\nfused:\n%s\nlegacy:\n%s", fused, legacy)
		}
	})
}

// TestOpStatsRPCRoundTrip checks the introspection RPC: a server whose
// handler is wrapped with Instrument answers nam.OpStats with its
// recorder's counters, even when it has no handler logic of its own.
func TestOpStatsRPCRoundTrip(t *testing.T) {
	fab := direct.New(1, 16<<20, nam.SuperblockBytes)
	rec := telemetry.NewRecorder(1)
	rec.RecordVerb(telemetry.VerbRead, 0, 64, 1500)
	fab.SetHandler(telemetry.Instrument(nil, rec, nil))

	m, err := telemetry.FetchStats(fab.Endpoint(), 0)
	if err != nil {
		t.Fatal(err)
	}
	verbs, ok := m["verbs"].(map[string]any)
	if !ok {
		t.Fatalf("no verbs section in %v", m)
	}
	read, ok := verbs["READ"].(map[string]any)
	if !ok {
		t.Fatalf("no READ entry in %v", verbs)
	}
	if ops := read["ops"].(float64); ops != 1 {
		t.Fatalf("READ ops = %v, want 1", ops)
	}
	if bytes := read["bytes"].(float64); bytes != 64 {
		t.Fatalf("READ bytes = %v, want 64", bytes)
	}

	// A server with telemetry disabled reports an error, not garbage.
	fab2 := direct.New(1, 16<<20, nam.SuperblockBytes)
	fab2.SetHandler(telemetry.Instrument(nil, nil, telemetry.NewTracer()))
	if _, err := telemetry.FetchStats(fab2.Endpoint(), 0); err == nil {
		t.Fatal("FetchStats succeeded against a recorder-less server")
	}
}
