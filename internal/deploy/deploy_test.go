package deploy_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/coarse"
	"github.com/namdb/rdmatree/internal/core/hybrid"
	"github.com/namdb/rdmatree/internal/deploy"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/obs"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/pipeline"
	"github.com/namdb/rdmatree/internal/policy"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/repl"
	"github.com/namdb/rdmatree/internal/rdma/retry"
)

const (
	servers  = 3
	region   = 8 << 20
	keyspace = 1 << 16
	preload  = 3000
	step     = keyspace / preload
)

var spec = core.BuildSpec{
	N:         preload,
	At:        func(i int) (uint64, uint64) { return uint64(i) * step, uint64(i) },
	HeadEvery: 8,
}

func build(t *testing.T, design nam.Design, replicas int) (*direct.Fabric, *deploy.Deployment) {
	t.Helper()
	fab := direct.New(servers, region, nam.SuperblockBytes)
	dep, err := deploy.Build(fab, fab.Endpoint(), deploy.Options{
		Design:    design,
		PageBytes: 512,
		Part:      partition.NewRangeUniform(servers, keyspace),
		Replicas:  replicas,
	}, spec)
	if err != nil {
		t.Fatal(err)
	}
	return fab, dep
}

// TestCatalogServedAfterBuildServer pins the catalog service of the designs
// with server-side logic: a memory server process that bulk-loaded only its
// own partition (BuildServer over a SingleServerFabric, as cmd/namserver
// does) answers OpCatalog with exactly the catalog a full Build produces.
func TestCatalogServedAfterBuildServer(t *testing.T) {
	l := layout.New(512)
	part := partition.NewRangeUniform(servers, keyspace)
	for _, design := range []nam.Design{nam.CoarseGrained, nam.Hybrid} {
		t.Run(design.Name(), func(t *testing.T) {
			_, full := build(t, design, 0)

			// Server 0 of a fresh cluster, built on its own; the hybrid
			// partition writes its leaves to the peers through setup.
			fab := direct.New(servers, region, nam.SuperblockBytes)
			one := &rdma.SingleServerFabric{Srv: fab.Server(0), Total: servers}
			var h rdma.Handler
			var err error
			if design == nam.CoarseGrained {
				srv := coarse.NewServer(one, coarse.Options{Layout: l, Part: part})
				err = srv.BuildServer(0, spec)
				h = srv.Handler()
			} else {
				srv := hybrid.NewServer(one, hybrid.Options{Layout: l, Part: part})
				err = srv.BuildServer(fab.Endpoint(), 0, spec)
				h = srv.Handler()
			}
			if err != nil {
				t.Fatal(err)
			}
			fab.SetHandler(h)
			got, err := nam.FetchCatalog(fab.Endpoint(), 0)
			if err != nil {
				t.Fatalf("OpCatalog after BuildServer: %v", err)
			}
			if !reflect.DeepEqual(got, full.Catalog) {
				t.Fatalf("served catalog %+v, full Build's %+v", got, full.Catalog)
			}
		})
	}
}

// TestRejections pins every combination the builder refuses; each is
// refused here and nowhere else.
func TestRejections(t *testing.T) {
	adaptive := policy.NewEngine(policy.Defaults(servers), policy.NewWindow(servers), &obs.TickClock{})
	cases := []struct {
		name     string
		design   nam.Design
		replicas int
		opts     deploy.ClientOptions
		want     string
	}{
		{"pipelined fine k=2", nam.FineGrained, 2, deploy.ClientOptions{Inflight: 8}, "replicated"},
		{"pipelined coarse k=2", nam.CoarseGrained, 2, deploy.ClientOptions{Inflight: 8}, "replicated"},
		{"pipelined hybrid k=2", nam.Hybrid, 2, deploy.ClientOptions{Inflight: 8}, "replicated"},
		{"pipelined with recover", nam.Hybrid, 0, deploy.ClientOptions{Inflight: 8, Recover: true}, "no Recover"},
		{"cache on coarse", nam.CoarseGrained, 0, deploy.ClientOptions{CachePages: 64}, "read path"},
		{"legacy on hybrid", nam.Hybrid, 0, deploy.ClientOptions{LegacyReads: true}, "read path"},
		{"pipelined cache", nam.FineGrained, 0, deploy.ClientOptions{Inflight: 8, CachePages: 64}, "read path"},
		{"pipelined legacy", nam.FineGrained, 0, deploy.ClientOptions{Inflight: 8, LegacyReads: true}, "read path"},
		{"decider on fine", nam.FineGrained, 0, deploy.ClientOptions{Decider: adaptive}, "requires the hybrid design"},
		{"decider on coarse", nam.CoarseGrained, 0, deploy.ClientOptions{Decider: policy.Static(policy.StrategyOneSided)}, "requires the hybrid design"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fab, dep := build(t, tc.design, tc.replicas)
			tc.opts.Ep, tc.opts.Env = fab.Endpoint(), direct.Env{}
			_, err := dep.Client(tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Client = %v, want an error naming %q", err, tc.want)
			}
		})
	}
	t.Run("pipelined replicated sentinel", func(t *testing.T) {
		fab, dep := build(t, nam.Hybrid, 2)
		if _, err := dep.Client(deploy.ClientOptions{Ep: fab.Endpoint(), Inflight: 1}); !errors.Is(err, deploy.ErrPipelinedReplicated) {
			t.Fatalf("Client = %v, want ErrPipelinedReplicated", err)
		}
	})
	t.Run("replicas exceed servers", func(t *testing.T) {
		fab := direct.New(servers, region, nam.SuperblockBytes)
		_, err := deploy.Build(fab, fab.Endpoint(), deploy.Options{Design: nam.FineGrained, PageBytes: 512, Replicas: servers + 1}, spec)
		if err == nil || !strings.Contains(err.Error(), "exceed") {
			t.Fatalf("Build = %v, want a replica-count error", err)
		}
	})
	t.Run("unknown design", func(t *testing.T) {
		fab := direct.New(servers, region, nam.SuperblockBytes)
		if _, err := deploy.Build(fab, fab.Endpoint(), deploy.Options{Design: nam.Design(9), PageBytes: 512}, spec); err == nil {
			t.Fatal("Build accepted an unknown design")
		}
	})
}

// TestFeatureMatrix runs every supported stack through the builder against
// the in-memory oracle: each design serial and 8 in flight, unreplicated,
// 8 in flight over the retry ring, and serial at k=2; the fine-grained
// cached and legacy read paths, unreplicated and at k=2; and the hybrid
// design under a one-sided Decider, serial and 8 in flight, whose Feed must
// see one-sided traversals only. Replicated rows also require every backup
// to be byte-identical to its primary afterwards — the client mirrored
// every page it acked.
func TestFeatureMatrix(t *testing.T) {
	type row struct {
		design   nam.Design
		replicas int
		opts     deploy.ClientOptions
	}
	var rows []row
	for _, d := range []nam.Design{nam.CoarseGrained, nam.FineGrained, nam.Hybrid} {
		rows = append(rows,
			row{d, 0, deploy.ClientOptions{}},
			row{d, 0, deploy.ClientOptions{Inflight: 8}},
			row{d, 0, deploy.ClientOptions{Inflight: 8, Retry: &retry.Policy{}}},
			row{d, 2, deploy.ClientOptions{}})
	}
	for _, k := range []int{0, 2} {
		rows = append(rows,
			row{nam.FineGrained, k, deploy.ClientOptions{CachePages: 64}},
			row{nam.FineGrained, k, deploy.ClientOptions{LegacyReads: true}})
	}
	for _, n := range []int{0, 8} {
		rows = append(rows, row{nam.Hybrid, 0, deploy.ClientOptions{
			Inflight: n, Decider: policy.Static(policy.StrategyOneSided), Feed: &strategyCount{}, FeedClock: &obs.TickClock{},
		}})
	}
	for _, r := range rows {
		inflight := fmt.Sprint(r.opts.Inflight)
		if r.opts.Retry != nil {
			inflight += "+retry"
		}
		name := fmt.Sprintf("%s/k=%d/inflight=%s/cache=%d/legacy=%v",
			r.design.Name(), r.replicas, inflight, r.opts.CachePages, r.opts.LegacyReads)
		if r.opts.Decider != nil {
			name += "/decider=one-sided"
		}
		t.Run(name, func(t *testing.T) {
			fab, dep := build(t, r.design, r.replicas)
			r.opts.ID, r.opts.Ep, r.opts.Env = 1, fab.Endpoint(), direct.Env{}
			cl, err := dep.Client(r.opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := core.NewReference()
			for i := 0; i < preload; i++ {
				k, v := spec.At(i)
				ref.Insert(k, v)
			}
			if cl.Pipelined != nil {
				runPipelined(t, cl.Pipelined, ref)
			} else {
				runSerial(t, cl.Serial, ref)
			}
			if r.opts.CachePages > 0 && cl.Cache.Stats.Hits == 0 {
				t.Error("the cached client never hit its cache")
			}
			if f, ok := r.opts.Feed.(*strategyCount); ok && (f.oneSided == 0 || f.rpc != 0) {
				t.Errorf("the feed saw %d one-sided and %d RPC traversals under a one-sided decider", f.oneSided, f.rpc)
			}
			if r.replicas >= 2 {
				lay := dep.Catalog.Layout()
				for h := 0; h < servers; h++ {
					for _, m := range lay.Groups.Members(h)[1:] {
						if d := repl.DiffExtent(lay, h, fab.Server(h), fab.Server(m), fab.Server); d != 0 {
							t.Errorf("group %d: backup %d differs from the primary in %d words", h, m, d)
						}
					}
				}
			}
		})
	}
}

// strategyCount is a policy.Feed counting traversals by strategy.
type strategyCount struct{ oneSided, rpc int }

func (f *strategyCount) ObserveTraverse(_ int, strat policy.Strategy, _ int64, _ int) {
	if strat == policy.StrategyOneSided {
		f.oneSided++
	} else {
		f.rpc++
	}
}

func (f *strategyCount) ObserveLeaf(int, int64, int, int) {}
func (f *strategyCount) ObserveCPU(int, float64)          {}

// The script: inserts of new keys and of duplicates under preloaded keys,
// lookups of both, and one range straddling a partition boundary.
const inserts = 400

func insertAt(i int) (uint64, uint64) {
	return uint64(i*7919) % keyspace, 1<<32 | uint64(i)
}

func lookupKeys() []uint64 {
	var keys []uint64
	for i := 0; i < inserts; i += 3 {
		k, _ := insertAt(i)
		keys = append(keys, k, k+1)
	}
	return keys
}

const rangeLo, rangeHi = keyspace/servers - 300, keyspace/servers + 300

func sorted(vals []uint64) []uint64 {
	out := slices.Clone(vals)
	slices.Sort(out)
	return out
}

// checkRange compares one range scan against the oracle's.
func checkRange(t *testing.T, scan func(lo, hi uint64, emit func(k, v uint64) bool) error, ref *core.Reference) {
	t.Helper()
	collect := func(scan func(lo, hi uint64, emit func(k, v uint64) bool) error) []string {
		var got []string
		if err := scan(rangeLo, rangeHi, func(k, v uint64) bool {
			got = append(got, fmt.Sprintf("%d:%d", k, v))
			return true
		}); err != nil {
			t.Fatalf("range: %v", err)
		}
		slices.Sort(got)
		return got
	}
	if got, want := collect(scan), collect(ref.Range); !slices.Equal(got, want) {
		t.Errorf("range [%d, %d] = %d entries, oracle %d", rangeLo, rangeHi, len(got), len(want))
	}
}

func runSerial(t *testing.T, idx core.Index, ref *core.Reference) {
	for i := 0; i < inserts; i++ {
		k, v := insertAt(i)
		if err := idx.Insert(k, v); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		ref.Insert(k, v)
	}
	for _, k := range lookupKeys() {
		got, err := idx.Lookup(k)
		if err != nil {
			t.Fatalf("lookup %d: %v", k, err)
		}
		if want, _ := ref.Lookup(k); !slices.Equal(sorted(got), sorted(want)) {
			t.Errorf("lookup %d = %v, oracle %v", k, got, want)
		}
	}
	checkRange(t, idx.Range, ref)
}

func runPipelined(t *testing.T, pc *pipeline.Engine, ref *core.Reference) {
	errs := make([]error, inserts)
	for i := range errs {
		i := i
		k, v := insertAt(i)
		pc.Insert(k, v, func(err error) { errs[i] = err })
		ref.Insert(k, v)
	}
	pc.Drain()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	keys := lookupKeys()
	got := make([][]uint64, len(keys))
	for i, k := range keys {
		i := i
		pc.Lookup(k, func(vals []uint64, err error) {
			if err != nil {
				t.Errorf("lookup %d: %v", keys[i], err)
			}
			got[i] = sorted(vals)
		})
	}
	pc.Drain()
	for i, k := range keys {
		if want, _ := ref.Lookup(k); !slices.Equal(got[i], sorted(want)) {
			t.Errorf("lookup %d = %v, oracle %v", k, got[i], want)
		}
	}
	checkRange(t, pc.Range, ref)
}

// TestConnect pins the catalog lookup a remote client makes: the RPC
// designs' servers serve theirs, and the fine-grained design's passive
// servers need none.
func TestConnect(t *testing.T) {
	for _, design := range []nam.Design{nam.CoarseGrained, nam.FineGrained, nam.Hybrid} {
		fab, full := build(t, design, 0)
		dep, err := deploy.Connect(fab.Endpoint(), design, 512)
		if err != nil {
			t.Fatalf("%s: %v", design.Name(), err)
		}
		if !reflect.DeepEqual(dep.Catalog, full.Catalog) {
			t.Errorf("%s: connected catalog %+v, deployed %+v", design.Name(), dep.Catalog, full.Catalog)
		}
	}
	fab, _ := build(t, nam.Hybrid, 0)
	if _, err := deploy.Connect(fab.Endpoint(), nam.CoarseGrained, 512); err == nil {
		t.Error("Connect accepted a hybrid cluster as coarse-grained")
	}
	if _, err := deploy.Connect(direct.New(servers, region, nam.SuperblockBytes).Endpoint(), nam.CoarseGrained, 512); err == nil {
		t.Error("Connect invented a catalog for servers that serve none")
	}
}
