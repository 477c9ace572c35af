package symmetry

import (
	"github.com/ioa-lab/boosting/internal/codec"
	"github.com/ioa-lab/boosting/internal/system"
)

// PermuteForTest applies the group element given as an id map to st via the
// spec's state action, rebuilding every component from its rewritten state —
// the general path's constructor, independent of the cell-based pure path
// (white-box hook for the orbit-invariance tests).
func (c *Canonicalizer) PermuteForTest(st system.State, idMap map[int]int) system.State {
	p := make([]int, len(c.procIDs))
	for slot, id := range c.procIDs {
		img := id
		if v, ok := idMap[id]; ok {
			img = v
		}
		p[slot] = c.slotOf(img)
	}
	svcMap, err := c.serviceMap(p)
	if err != nil {
		panic(err)
	}
	return c.stateOf(c.permuted(st, p, svcMap))
}

// LessForTest exposes the pure path's piecewise slot order.
func (c *Canonicalizer) LessForTest(st system.State, a, b int) bool { return c.less(st, a, b) }

// KeyForTest is the sort key the pure path used to materialise per slot and
// compare with bytes.Compare, kept as the oracle for the piecewise order: the
// process component fingerprint followed by the process's slice of every
// service state — invocation buffer, response buffer, failed-set membership
// — re-encoded from the component states in fixed service order.
func (c *Canonicalizer) KeyForTest(st system.State, slot int) []byte {
	dst := st.Proc(slot).AppendFingerprint(nil)
	id := c.procIDs[slot]
	for i := range c.svcIDs {
		ss := st.Svc(i)
		dst = codec.AppendList(dst, ss.Inv.Queue(id))
		dst = codec.AppendList(dst, ss.Resp.Queue(id))
		if ss.Failed.Has(id) {
			dst = append(dst, 'F')
		} else {
			dst = append(dst, '.')
		}
	}
	return dst
}
