package pipeline_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/coarse"
	"github.com/namdb/rdmatree/internal/core/hybrid"
	"github.com/namdb/rdmatree/internal/deploy"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/pipeline"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/workload"
)

// The range section inserts rangeInserts keys from rangeFirst on and scans
// [rangeLo, rangeHi], which straddles the boundary between the first two
// partitions of NewRangeUniform(3, 1<<16).
const (
	rangeFirst, rangeInserts = 21840, 10
	rangeLo, rangeHi         = 21830, 21860
)

func scanSection(b *strings.Builder, scan func(lo, hi uint64, emit func(k, v uint64) bool) error) {
	err := scan(rangeLo, rangeHi, func(k, v uint64) bool {
		fmt.Fprintf(b, "scan %d %d\n", k, v)
		return true
	})
	fmt.Fprintf(b, "scan err %v\n", err)
}

// driveSerialRange is driveSerial followed by the range section.
func driveSerialRange(t *testing.T, idx core.Index) string {
	var b strings.Builder
	b.WriteString(driveSerial(t, idx))
	for k := uint64(rangeFirst); k < rangeFirst+rangeInserts; k++ {
		fmt.Fprintf(&b, "put %d %v\n", k, idx.Insert(k, k*3))
	}
	scanSection(&b, idx.Range)
	return b.String()
}

// driveAsync mirrors driveSerial through the callback surface, draining at
// section boundaries.
func driveAsync(t *testing.T, c *pipeline.Engine) string {
	t.Helper()
	type getRes struct {
		vals []uint64
		err  error
	}
	var b strings.Builder

	runGets := func(format string, keys []uint64) {
		res := make([]getRes, len(keys))
		for i, k := range keys {
			i := i
			c.Lookup(k, func(vals []uint64, err error) {
				res[i] = getRes{vals: append([]uint64(nil), vals...), err: err}
			})
		}
		c.Drain()
		for i, r := range res {
			fmt.Fprintf(&b, format, keys[i], r.vals, r.err)
		}
	}

	var keys []uint64
	for k := uint64(0); k < 600; k += 7 {
		keys = append(keys, k)
	}
	runGets("get %d -> %v %v\n", keys)

	putErrs := make([]error, 80)
	for i := range putErrs {
		i := i
		k := uint64(2000 + i)
		c.Insert(k, k*3, func(err error) { putErrs[i] = err })
	}
	c.Drain()
	for i, err := range putErrs {
		fmt.Fprintf(&b, "put %d %v\n", 2000+i, err)
	}

	type delRes struct {
		ok  bool
		err error
	}
	delRess := make([]delRes, 30)
	for i := range delRess {
		i := i
		k := uint64(2000 + i)
		c.Delete(k, k*3, func(ok bool, err error) { delRess[i] = delRes{ok, err} })
	}
	c.Drain()
	for i, r := range delRess {
		fmt.Fprintf(&b, "del %d %v %v\n", 2000+i, r.ok, r.err)
	}

	keys = nil
	for k := uint64(1990); k < 2090; k += 3 {
		keys = append(keys, k)
	}
	runGets("chk %d -> %v %v\n", keys)

	// Range section: the inserts are still in flight when Range is called,
	// so the scan sees them only if Range drains first.
	putErrs = make([]error, rangeInserts)
	for i := range putErrs {
		i := i
		k := uint64(rangeFirst + i)
		c.Insert(k, k*3, func(err error) { putErrs[i] = err })
	}
	var scan strings.Builder
	scanSection(&scan, c.Range)
	for i, err := range putErrs {
		fmt.Fprintf(&b, "put %d %v\n", rangeFirst+i, err)
	}
	b.WriteString(scan.String())
	return b.String()
}

// TestConformanceCoarse pins the coarse pipelined client (outstanding RPC
// ring) to the serial RPC client at in-flight 1 and 8.
func TestConformanceCoarse(t *testing.T) {
	const keyspace = 1 << 16
	build := func() (*direct.Fabric, *nam.Catalog) {
		fab := direct.New(3, 64<<20, nam.SuperblockBytes)
		srv := coarse.NewServer(fab, coarse.Options{
			Layout: layout.New(512),
			Part:   partition.NewRangeUniform(3, keyspace),
		})
		cat, err := srv.Build(core.BuildSpec{N: 5000, At: workload.DataItem})
		if err != nil {
			t.Fatal(err)
		}
		fab.SetHandler(srv.Handler())
		return fab, cat
	}
	fab, cat := build()
	serial := driveSerialRange(t, coarse.NewClient(fab.Endpoint(), direct.Env{}, cat))
	for _, inflight := range []int{1, 8} {
		fab, cat := build()
		got := driveAsync(t, coarse.NewClient(fab.Endpoint(), direct.Env{}, cat).Pipeline(inflight))
		if serial != got {
			t.Errorf("coarse in-flight %d diverged from serial:\nserial:\n%s\npipelined:\n%s",
				inflight, serial, got)
		}
	}
}

// TestConformanceHybrid pins the hybrid pipelined client (outstanding
// traverse RPCs + serial one-sided leaf accesses) to the serial client at
// in-flight 1 and 8.
func TestConformanceHybrid(t *testing.T) {
	const keyspace = 1 << 16
	build := func() (*direct.Fabric, *nam.Catalog) {
		fab := direct.New(3, 64<<20, nam.SuperblockBytes)
		srv := hybrid.NewServer(fab, hybrid.Options{
			Layout: layout.New(512),
			Part:   partition.NewRangeUniform(3, keyspace),
		})
		cat, err := srv.Build(fab.Endpoint(), core.BuildSpec{N: 5000, At: workload.DataItem, HeadEvery: 16})
		if err != nil {
			t.Fatal(err)
		}
		fab.SetHandler(srv.Handler())
		return fab, cat
	}
	fab, cat := build()
	serial := driveSerialRange(t, hybrid.NewClient(fab.Endpoint(), direct.Env{}, cat, 0))
	for _, inflight := range []int{1, 8} {
		fab, cat := build()
		got := driveAsync(t, hybrid.NewClient(fab.Endpoint(), direct.Env{}, cat, 0).Pipeline(inflight))
		if serial != got {
			t.Errorf("hybrid in-flight %d diverged from serial:\nserial:\n%s\npipelined:\n%s",
				inflight, serial, got)
		}
	}
}

// TestReplicatedRoutingMatchesSerial pins the pipelined RPC clients to their
// serial clients on a k=2 replicated deployment, with lookups of preloaded
// keys in every partition. Replicated handlers serve whichever replica group
// a request names, so a request must name its partition's group; one that
// does not is answered from another partition's tree.
func TestReplicatedRoutingMatchesSerial(t *testing.T) {
	const (
		servers  = 3
		region   = 64 << 20
		keyspace = 1 << 16
		preload  = 3000
		step     = 21
	)
	spec := core.BuildSpec{
		N:         preload,
		At:        func(i int) (uint64, uint64) { return uint64(i) * step, uint64(i) },
		HeadEvery: 8,
	}
	// build deploys design replicated and returns its serial client and a
	// pipelined client. The builder rejects pipelined clients on replicated
	// deployments — their inserts would not mirror — so the pipelined one
	// is made by hand; lookups need no mirroring.
	build := func(design nam.Design, inflight int) (core.Index, *pipeline.Engine) {
		fab := direct.New(servers, region, nam.SuperblockBytes)
		dep, err := deploy.Build(fab, fab.Endpoint(), deploy.Options{
			Design:    design,
			PageBytes: 512,
			Part:      partition.NewRangeUniform(servers, keyspace),
			Replicas:  2,
		}, spec)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := dep.Client(deploy.ClientOptions{Ep: fab.Endpoint(), Env: direct.Env{}})
		if err != nil {
			t.Fatal(err)
		}
		if design == nam.CoarseGrained {
			return cl.Serial, coarse.NewClient(fab.Endpoint(), direct.Env{}, dep.Catalog).Pipeline(inflight)
		}
		return cl.Serial, hybrid.NewClient(fab.Endpoint(), direct.Env{}, dep.Catalog, 0).Pipeline(inflight)
	}
	var keys []uint64
	for i := 0; i < preload; i += 22 {
		keys = append(keys, uint64(i)*step)
	}
	for _, design := range []nam.Design{nam.CoarseGrained, nam.Hybrid} {
		serial, _ := build(design, 1)
		var want []string
		for _, k := range keys {
			vals, err := serial.Lookup(k)
			if err != nil || len(vals) != 1 || vals[0] != k/step {
				t.Fatalf("%s serial lookup %d = %v, %v; want [%d]", design, k, vals, err, k/step)
			}
			want = append(want, fmt.Sprintf("%v %v", vals, err))
		}
		for _, inflight := range []int{1, 8} {
			_, pc := build(design, inflight)
			got := make([]string, len(keys))
			for i, k := range keys {
				i := i
				pc.Lookup(k, func(vals []uint64, err error) { got[i] = fmt.Sprintf("%v %v", vals, err) })
			}
			pc.Drain()
			wrong := 0
			for i := range keys {
				if got[i] != want[i] {
					wrong++
					if wrong <= 3 {
						t.Errorf("%s in-flight %d: lookup %d = %s, serial %s", design, inflight, keys[i], got[i], want[i])
					}
				}
			}
			if wrong > 0 {
				t.Errorf("%s in-flight %d: %d of %d lookups differ from serial", design, inflight, wrong, len(keys))
			}
		}
	}
}
