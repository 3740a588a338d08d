package deploy_test

import (
	"testing"

	"github.com/namdb/rdmatree/internal/deploy"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/repl"
)

// outage fails the next n one-sided verbs addressed to server down with
// rdma.ErrTimeout, then heals. RPCs pass.
type outage struct {
	rdma.Endpoint
	down, n int
}

func (o *outage) hit(p rdma.RemotePtr) bool {
	if p.Server() != o.down || o.n == 0 {
		return false
	}
	o.n--
	return true
}

func (o *outage) Read(p rdma.RemotePtr, dst []uint64) error {
	if o.hit(p) {
		return rdma.ErrTimeout
	}
	return o.Endpoint.Read(p, dst)
}

func (o *outage) ReadMulti(ps []rdma.RemotePtr, dst [][]uint64) error {
	if o.hit(ps[0]) {
		return rdma.ErrTimeout
	}
	return o.Endpoint.ReadMulti(ps, dst)
}

func (o *outage) Write(p rdma.RemotePtr, src []uint64) error {
	if o.hit(p) {
		return rdma.ErrTimeout
	}
	return o.Endpoint.Write(p, src)
}

func (o *outage) CompareAndSwap(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	if o.hit(p) {
		return 0, rdma.ErrTimeout
	}
	return o.Endpoint.CompareAndSwap(p, old, new)
}

// TestAckedInsertReachesBackups pins mirror-before-ack through operation
// recovery. A coarse k=2 insert commits on its partition's primary, but
// every attempt of its mirror push to the backup times out, so the insert
// fails into core.Recover. The recovery's presence check then finds the
// entry on the primary. It may ack only after re-pushing the image: an ack
// with the backup still behind would lose the insert when the primary's
// region is lost and the backup promoted.
func TestAckedInsertReachesBackups(t *testing.T) {
	fab, dep := build(t, nam.CoarseGrained, 2)
	lay := dep.Catalog.Layout()
	ep := &outage{Endpoint: fab.Endpoint(), down: -1}
	cl, err := dep.Client(deploy.ClientOptions{Ep: ep, Env: direct.Env{}, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	// Key 1 lives in partition 0, whose backup is server 1. A push retries
	// each verb 8 times (retry.Policy's default), so 8 faults fail exactly
	// the first push.
	backup := lay.Groups.Members(0)[1]
	ep.down, ep.n = backup, 8
	if err := cl.Serial.Insert(1, 1<<40); err != nil {
		t.Fatal(err)
	}
	if ep.n != 0 {
		t.Fatalf("%d faults left unused: the push did not fail", ep.n)
	}
	if d := repl.DiffExtent(lay, 0, fab.Server(0), fab.Server(backup), fab.Server); d != 0 {
		t.Errorf("insert acked with backup %d behind its primary in %d words", backup, d)
	}
}
