package service

import (
	"slices"
	"strconv"

	"github.com/ioa-lab/boosting/internal/codec"
)

// Buffers is one of a service state's per-endpoint FIFO buffer families —
// the inv-buffers or the resp-buffers of Fig. 1 — as an immutable value. The
// zero value has every queue empty.
//
// It holds the non-empty queues only, in the order of their canonical map
// encoding: by the endpoint's decimal encoding, so 10 comes before 2. The
// encoding is therefore written front to back, with no sort. An update
// copies the header, one entry per non-empty queue, and the one queue it
// touches; every other queue is shared with the value it was made from,
// which never changes.
type Buffers struct {
	qs []queue
}

// queue is one endpoint's non-empty FIFO buffer.
type queue struct {
	id    int
	items []string
}

// Queue returns endpoint i's buffer, head first (shared slice; do not
// modify).
func (b Buffers) Queue(i int) []string {
	if j, ok := b.find(i); ok {
		return b.qs[j].items
	}
	return nil
}

// With returns b with endpoint i's buffer replaced by items, which it
// retains; an empty items empties the buffer.
func (b Buffers) With(i int, items []string) Buffers {
	j, found := b.find(i)
	switch {
	case found && len(items) == 0:
		return Buffers{qs: slices.Concat(b.qs[:j], b.qs[j+1:])}
	case found:
		qs := slices.Clone(b.qs)
		qs[j].items = items
		return Buffers{qs: qs}
	case len(items) == 0:
		return b
	default:
		return Buffers{qs: slices.Concat(b.qs[:j], []queue{{id: i, items: items}}, b.qs[j:])}
	}
}

// find returns the position of endpoint i's queue, or, with ok false, the
// position where it would be inserted.
func (b Buffers) find(i int) (j int, ok bool) {
	for j, q := range b.qs {
		if q.id == i {
			return j, true
		}
	}
	for j, q := range b.qs {
		if decimalLess(i, q.id) {
			return j, false
		}
	}
	return len(b.qs), false
}

// pushed returns b with items appended to endpoint i's queue.
func (b Buffers) pushed(i int, items ...string) Buffers {
	if len(items) == 0 {
		return b
	}
	old := b.Queue(i)
	merged := make([]string, len(old), len(old)+len(items))
	copy(merged, old)
	return b.With(i, append(merged, items...))
}

// popped returns b with the head of endpoint i's queue removed, plus the
// removed head. ok is false if the queue is empty. The rest of the queue is
// shared with b.
func (b Buffers) popped(i int) (out Buffers, head string, ok bool) {
	items := b.Queue(i)
	if len(items) == 0 {
		return b, "", false
	}
	return b.With(i, items[1:]), items[0], true
}

// Rekeyed returns b with endpoint i's queue moved to endpoint rename(i) and,
// if rewrite is not nil, every item replaced by rewrite(item). rename must be
// injective on b's endpoints. Without a rewrite, a b none of whose queues
// moves is returned as is.
func (b Buffers) Rekeyed(rename func(int) int, rewrite func(string) string) Buffers {
	if rewrite == nil && !slices.ContainsFunc(b.qs, func(q queue) bool { return rename(q.id) != q.id }) {
		return b
	}
	qs := make([]queue, len(b.qs))
	for j, q := range b.qs {
		qs[j] = queue{id: rename(q.id), items: q.items}
		if rewrite != nil {
			qs[j].items = make([]string, len(q.items))
			for k, it := range q.items {
				qs[j].items[k] = rewrite(it)
			}
		}
		// Insertion sort back into canonical order; endpoint counts are tiny.
		for k := j; k > 0 && decimalLess(qs[k].id, qs[k-1].id); k-- {
			qs[k], qs[k-1] = qs[k-1], qs[k]
		}
	}
	return Buffers{qs: qs}
}

// appendFingerprint appends the canonical map encoding of b: an entry per
// non-empty queue, keyed by the endpoint's decimal string, each value the
// list encoding of the queue.
func (b Buffers) appendFingerprint(dst []byte) []byte {
	dst = append(dst, '<')
	for _, q := range b.qs {
		dst = append(dst, '(')
		dst = codec.AppendInt(dst, q.id)
		dst = codec.AppendWrapped(dst, func(d []byte) []byte {
			return codec.AppendList(d, q.items)
		})
		dst = append(dst, ')')
	}
	return append(dst, '>')
}

// decimalLess orders integers by their decimal encodings ("10" < "2").
func decimalLess(a, b int) bool {
	var ba, bb [24]byte
	sa := strconv.AppendInt(ba[:0], int64(a), 10)
	sb := strconv.AppendInt(bb[:0], int64(b), 10)
	return string(sa) < string(sb)
}
