// Fixture for the verberrs analyzer: no verb call may have its error
// discarded.
package fixture

import (
	"github.com/namdb/rdmatree/internal/btree"
	"github.com/namdb/rdmatree/internal/rdma"
)

func dropStatement(ep rdma.Endpoint, p rdma.RemotePtr, dst []uint64) {
	ep.Read(p, dst) // want "error of Endpoint.Read is discarded"
}

func dropBlank(ep rdma.Endpoint, p rdma.RemotePtr, src []uint64) {
	_ = ep.Write(p, src) // want "error of Endpoint.Write is assigned to _"
}

func dropLastBlank(ep rdma.Endpoint, p rdma.RemotePtr) uint64 {
	v, _ := ep.FetchAdd(p, 1) // want "error of Endpoint.FetchAdd is assigned to _"
	return v
}

func dropGo(ep rdma.Endpoint, p rdma.RemotePtr, dst []uint64) {
	go ep.Read(p, dst) // want "error of Endpoint.Read is discarded \(verb launched with go\)"
}

func dropDefer(ep rdma.Endpoint, p rdma.RemotePtr) {
	defer ep.Free(p, 64) // want "error of Endpoint.Free is discarded \(verb deferred\)"
}

func dropVar(ep rdma.Endpoint, server int, req []byte) []byte {
	var resp, _ = ep.Call(server, req) // want "error of Endpoint.Call is assigned to _"
	return resp
}

func memDrop(m btree.Mem, p rdma.RemotePtr, dst []uint64) {
	m.ReadWords(p, dst) // want "error of Mem.ReadWords is discarded"
}

func memBatchDrop(m btree.Mem, ps []rdma.RemotePtr, srcs [][]uint64) {
	m.AllocPages(0, 512, ps) // want "error of Mem.AllocPages is discarded"
	m.WritePages(ps, srcs)   // want "error of Mem.WritePages is discarded"
}

func okHandled(ep rdma.Endpoint, p rdma.RemotePtr, dst []uint64) error {
	if err := ep.Read(p, dst); err != nil {
		return err
	}
	_, err := ep.Alloc(0, 64)
	return err
}

func okPropagated(m btree.Mem, p rdma.RemotePtr, src []uint64) error {
	return m.WriteWords(p, src)
}

func allowedBestEffort(ep rdma.Endpoint, p rdma.RemotePtr, src []uint64) {
	_ = ep.Write(p, src) //rdmavet:allow verberrs -- fixture: best-effort hint write, loss is tolerated by design
}
