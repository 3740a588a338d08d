package deploy_test

import (
	"fmt"
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/coarse"
	"github.com/namdb/rdmatree/internal/core/hybrid"
	"github.com/namdb/rdmatree/internal/deploy"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/retry"
)

// TestPointOpAllocs pins the allocations of one point operation on direct:
// the coarse and hybrid handlers, whose tree handles are recycled across
// calls; the serial clients, bare and over the retry ring (whose posted
// publish pair must allocate nothing either); and the RPC designs' clients at
// 8 in flight, per submitted operation. Lookups hit preloaded keys. Inserts
// walk the whole preload (allocSpec), a few per leaf, so none splits; the
// split path has a test of its own (TestSplitInsertAllocs). The handler
// counts are its response encode; the client counts of the RPC designs
// include their calls'.
func TestPointOpAllocs(t *testing.T) {
	lookupKey := func(i int) uint64 { return uint64(i%preload) * step }
	// A stride coprime to preload spreads a check's 1001 inserts over every
	// leaf of allocSpec: about 5 each, where 15 fit.
	insertKey := func(i int) uint64 { return lookupKey(i*7) + 1 }
	check := func(t *testing.T, what string, want float64, f func(i int)) {
		t.Helper()
		i := 0
		if got := testing.AllocsPerRun(1000, func() { i++; f(i) }); got > want {
			t.Errorf("%s: %v allocs per call, want <= %v", what, got, want)
		}
	}
	// The handler subtests call srv.Handler()'s closure directly, as a
	// transport does, so the request buffer stays on the stack and only the
	// response encode is counted.
	ok := func(t *testing.T, what string, resp []byte) {
		t.Helper()
		if r, err := nam.DecodeResponse(resp); err != nil || r.Status != nam.StatusOK {
			t.Fatalf("%s: %+v %v", what, r, err)
		}
	}
	t.Run("coarse-handler", func(t *testing.T) {
		fab := direct.New(servers, region, nam.SuperblockBytes)
		srv := coarse.NewServer(fab, coarse.Options{Layout: layout.New(512), Part: partition.NewRangeUniform(servers, keyspace)})
		if _, err := srv.Build(allocSpec); err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		call := func(op uint8, key uint64) []byte {
			req := nam.Request{Op: op, Key: key, Value: key}
			resp, _ := h(rdma.NopEnv{}, 0, req.Encode()) //rdmavet:allow nopenv -- allocation count only, untimed
			return resp
		}
		check(t, "OpLookup", 1, func(i int) { call(nam.OpLookup, lookupKey(i)) })
		check(t, "OpInsert", 1, func(i int) { call(nam.OpInsert, insertKey(i)) })
		ok(t, "OpLookup", call(nam.OpLookup, insertKey(1)))
		ok(t, "OpInsert", call(nam.OpInsert, insertKey(1)))
	})
	t.Run("hybrid-handler", func(t *testing.T) {
		fab := direct.New(servers, region, nam.SuperblockBytes)
		srv := hybrid.NewServer(fab, hybrid.Options{Layout: layout.New(512), Part: partition.NewRangeUniform(servers, keyspace)})
		if _, err := srv.Build(fab.Endpoint(), allocSpec); err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		call := func(key uint64) []byte {
			req := nam.Request{Op: nam.OpTraverse, Key: key}
			resp, _ := h(rdma.NopEnv{}, 0, req.Encode()) //rdmavet:allow nopenv -- allocation count only, untimed
			return resp
		}
		check(t, "OpTraverse", 1, func(i int) { call(lookupKey(i)) })
		ok(t, "OpTraverse", call(lookupKey(1)))
	})
	for _, c := range []struct {
		design         nam.Design
		retry          bool
		inflight       int
		lookup, insert float64
	}{
		{nam.CoarseGrained, false, 0, 2, 1},
		{nam.Hybrid, false, 0, 2, 1},
		{nam.FineGrained, false, 0, 0, 0},
		{nam.Hybrid, true, 0, 2, 1},
		{nam.FineGrained, true, 0, 0, 0},
		{nam.CoarseGrained, false, 8, 3, 2},
		{nam.Hybrid, false, 8, 3, 2},
	} {
		name := c.design.Name()
		var pol *retry.Policy
		if c.retry {
			name, pol = name+"+retry", &retry.Policy{}
		}
		if c.inflight > 0 {
			name += fmt.Sprintf("/inflight=%d", c.inflight)
		}
		t.Run(name, func(t *testing.T) {
			fab, dep := buildSpec(t, c.design, 0, allocSpec)
			cl, err := dep.Client(deploy.ClientOptions{Ep: fab.Endpoint(), Env: direct.Env{}, Retry: pol, Inflight: c.inflight})
			if err != nil {
				t.Fatal(err)
			}
			if pc := cl.Pipelined; pc != nil {
				// One submission per call: completions land in later calls,
				// so the average is per submitted operation.
				var failed error
				onLookup := func(vals []uint64, err error) {
					if err != nil || len(vals) == 0 {
						failed = fmt.Errorf("lookup = %v, %v", vals, err)
					}
				}
				onInsert := func(err error) {
					if err != nil {
						failed = err
					}
				}
				check(t, "Lookup", c.lookup, func(i int) { pc.Lookup(lookupKey(i), onLookup) })
				check(t, "Insert", c.insert, func(i int) { pc.Insert(insertKey(i), uint64(i), onInsert) })
				pc.Drain()
				if failed != nil {
					t.Fatal(failed)
				}
				return
			}
			check(t, "Lookup", c.lookup, func(i int) {
				if vals, err := cl.Serial.Lookup(lookupKey(i)); err != nil || len(vals) == 0 {
					t.Fatalf("Lookup(%d) = %v, %v", lookupKey(i), vals, err)
				}
			})
			check(t, "Insert", c.insert, func(i int) {
				if err := cl.Serial.Insert(insertKey(i), uint64(i)); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// allocSpec is spec's preload at half fill: every leaf has room for the
// inserts TestPointOpAllocs spreads over it.
var allocSpec = core.BuildSpec{N: preload, At: spec.At, Fill: 0.5, HeadEvery: spec.HeadEvery}
