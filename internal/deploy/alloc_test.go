package deploy_test

import (
	"testing"

	"github.com/namdb/rdmatree/internal/core/coarse"
	"github.com/namdb/rdmatree/internal/deploy"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/retry"
)

// TestPointOpAllocs pins the allocations of one blocking point operation on
// direct: the coarse handler, whose tree handles are recycled across calls,
// and the hybrid and fine serial clients, bare and over the retry ring (whose
// posted publish pair must allocate nothing either). Lookups hit preloaded
// keys; inserts land in leaves with room, so no split buffer is involved. The
// handler counts are its response encode; the hybrid counts include the
// traverse RPC's.
func TestPointOpAllocs(t *testing.T) {
	lookupKey := func(i int) uint64 { return uint64(i%preload) * step }
	insertKey := func(i int) uint64 { return lookupKey(i) + 1 }
	check := func(t *testing.T, what string, want float64, f func(i int)) {
		t.Helper()
		i := 0
		if got := testing.AllocsPerRun(200, func() { i++; f(i) }); got > want {
			t.Errorf("%s: %v allocs per call, want <= %v", what, got, want)
		}
	}
	t.Run("coarse-handler", func(t *testing.T) {
		fab := direct.New(servers, region, nam.SuperblockBytes)
		srv := coarse.NewServer(fab, coarse.Options{Layout: layout.New(512), Part: partition.NewRangeUniform(servers, keyspace)})
		if _, err := srv.Build(spec); err != nil {
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
		for _, op := range []uint8{nam.OpLookup, nam.OpInsert} {
			if resp, err := nam.DecodeResponse(call(op, insertKey(1))); err != nil || resp.Status != nam.StatusOK {
				t.Fatalf("op %d: %+v %v", op, resp, err)
			}
		}
	})
	for _, c := range []struct {
		design         nam.Design
		retry          bool
		lookup, insert float64
	}{{nam.Hybrid, false, 4, 3}, {nam.FineGrained, false, 0, 0}, {nam.Hybrid, true, 4, 3}, {nam.FineGrained, true, 0, 0}} {
		name := c.design.Name()
		var pol *retry.Policy
		if c.retry {
			name, pol = name+"+retry", &retry.Policy{}
		}
		t.Run(name, func(t *testing.T) {
			fab, dep := build(t, c.design, 0)
			cl, err := dep.Client(deploy.ClientOptions{Ep: fab.Endpoint(), Env: direct.Env{}, Retry: pol})
			if err != nil {
				t.Fatal(err)
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
