package service

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/ioa-lab/boosting/internal/codec"
)

// This file is the per-endpoint face of the service state codec, for the
// symmetry layer. A process renaming acts on a service state by moving
// endpoint i's share of it — invocation queue, response queue, failed-set
// membership — to endpoint π(i); the value is untouched. Endpoints locates
// those shares inside a canonical encoding once, so that comparing two
// endpoints' shares and encoding the renamed state both read the bytes
// AppendFingerprint already wrote instead of walking the State's buffers.

// Endpoints indexes one canonical state encoding by endpoint. It holds
// offsets only and is meaningful together with the encoding it was built
// from; it is a function of that encoding alone, immutable, and safe for
// concurrent use.
//
// An index is cached for as long as the state it describes, one per interned
// state, so it is kept small: an entry per endpoint that has a share, 16
// bytes each, found by scanning (endpoint counts are tiny).
type Endpoints struct {
	eps []endpoint
}

// endpoint is one endpoint's share of an encoding.
type endpoint struct {
	// queue locates the invocation and the response queue: the offset in
	// the encoding of the queue's wrapped list (length, ':', list), or 0
	// for an endpoint with nothing queued, which has no map entry.
	queue  [2]uint32
	id     int32
	failed bool
}

var (
	noEndpoints Endpoints
	noShare     endpoint
)

// atom returns the body of the atom at enc[pos:] and the offset just past
// it. pos must be the offset of an atom of an encoding IndexEndpoints
// accepted: the length prefix is read, not validated.
func atom(enc string, pos int) (body string, end int) {
	n := 0
	for ; enc[pos] != ':'; pos++ {
		n = n*10 + int(enc[pos]-'0')
	}
	return enc[pos+1 : pos+1+n], pos + 1 + n
}

// list returns the list encoding of the queue at enc[pos:] ("[]" for pos 0).
func list(enc string, pos uint32) string {
	if pos == 0 {
		return "[]"
	}
	body, _ := atom(enc, int(pos))
	return body
}

// IndexEndpoints indexes enc, which must be exactly one canonical service
// state encoding (what AppendFingerprint writes and ParseStatePrefix
// accepts) whose endpoints fit int32. Anything else returns an error
// wrapping codec.ErrMalformed; the encoding is scanned, not validated as
// canonical.
func IndexEndpoints(enc string) (*Endpoints, error) {
	if len(enc) == 0 || enc[0] != '[' || len(enc) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: not a service state encoding", codec.ErrMalformed)
	}
	_, rest, err := codec.ParseAtom(enc[1:])
	if err != nil {
		return nil, fmt.Errorf("service value: %w", err)
	}
	// Collected on the stack and copied out at its exact size.
	var scratch [8]endpoint
	eps := scratch[:0]
	for q := range 2 {
		var m string
		if m, rest, err = codec.ParseAtom(rest); err == nil {
			eps, err = indexQueues(eps, q, m, len(enc)-len(rest)-len(m))
		}
		if err != nil {
			return nil, fmt.Errorf("service buffer: %w", err)
		}
	}
	failed, rest, err := codec.ParseAtom(rest)
	if err == nil {
		eps, err = indexFailed(eps, failed)
	}
	if err != nil {
		return nil, fmt.Errorf("service failed-set: %w", err)
	}
	if rest != "]" {
		return nil, fmt.Errorf("%w: service state must end with ']'", codec.ErrMalformed)
	}
	if len(eps) == 0 {
		return &noEndpoints, nil
	}
	return &Endpoints{eps: slices.Clone(eps)}, nil
}

// indexQueues records where each queue of the buffer map m, which starts at
// enc[base], begins.
func indexQueues(eps []endpoint, q int, m string, base int) ([]endpoint, error) {
	if len(m) == 0 || m[0] != '<' {
		return nil, fmt.Errorf("%w: buffer map must start with '<'", codec.ErrMalformed)
	}
	s := m[1:]
	for len(s) > 0 && s[0] == '(' {
		id, queue, err := codec.ParseInt(s[1:])
		if err != nil {
			return nil, err
		}
		_, r, err := codec.ParseAtom(queue)
		if err != nil {
			return nil, err
		}
		if len(r) == 0 || r[0] != ')' {
			return nil, fmt.Errorf("%w: buffer entry must end with ')'", codec.ErrMalformed)
		}
		var e *endpoint
		if eps, e, err = entryOf(eps, id); err != nil {
			return nil, err
		}
		e.queue[q] = uint32(base + len(m) - len(queue))
		s = r[1:]
	}
	if s != ">" {
		return nil, fmt.Errorf("%w: buffer map must end with '>'", codec.ErrMalformed)
	}
	return eps, nil
}

func indexFailed(eps []endpoint, set string) ([]endpoint, error) {
	if len(set) == 0 || set[0] != '{' {
		return nil, fmt.Errorf("%w: failed set must start with '{'", codec.ErrMalformed)
	}
	s := set[1:]
	for len(s) > 0 && s[0] != '}' {
		id, r, err := codec.ParseInt(s)
		if err != nil {
			return nil, err
		}
		var e *endpoint
		if eps, e, err = entryOf(eps, id); err != nil {
			return nil, err
		}
		e.failed = true
		s = r
	}
	if s != "}" {
		return nil, fmt.Errorf("%w: failed set must end with '}'", codec.ErrMalformed)
	}
	return eps, nil
}

// entryOf returns id's entry in eps, adding it on first sight. The pointer is
// good until the next call.
func entryOf(eps []endpoint, id int) ([]endpoint, *endpoint, error) {
	if id < math.MinInt32 || id > math.MaxInt32 {
		return nil, nil, fmt.Errorf("%w: endpoint %d outside the indexable range", codec.ErrMalformed, id)
	}
	for i := range eps {
		if int(eps[i].id) == id {
			return eps, &eps[i], nil
		}
	}
	eps = append(eps, endpoint{id: int32(id)})
	return eps, &eps[len(eps)-1], nil
}

// share returns id's entry, or the empty share if the encoding does not
// mention id.
func (e *Endpoints) share(id int) *endpoint {
	for i := range e.eps {
		if int(e.eps[i].id) == id {
			return &e.eps[i]
		}
	}
	return &noShare
}

// Compare orders endpoint a's share of enc against endpoint b's: by the list
// encoding of the invocation queue, then of the response queue, then by the
// failed bit (clear before set). Every piece is a self-delimiting encoding —
// none is a proper prefix of another — so this is the bytewise order of the
// pieces concatenated.
func (e *Endpoints) Compare(enc string, a, b int) int {
	ea, eb := e.share(a), e.share(b)
	if ea == eb {
		return 0
	}
	for q := range ea.queue {
		if c := strings.Compare(list(enc, ea.queue[q]), list(enc, eb.queue[q])); c != 0 {
			return c
		}
	}
	switch {
	case ea.failed == eb.failed:
		return 0
	case eb.failed:
		return -1
	default:
		return 1
	}
}

// Moved reports whether relabelling every endpoint i as rename(i) changes the
// encoding, i.e. whether rename moves an endpoint that has a share.
func (e *Endpoints) Moved(rename func(int) int) bool {
	for i := range e.eps {
		if id := int(e.eps[i].id); rename(id) != id {
			return true
		}
	}
	return false
}

// AppendRenamed appends the canonical encoding of the state enc encodes with
// every endpoint i relabelled rename(i) — byte-identical to what
// AppendFingerprint writes for Renamed(rename) of that state — assembled
// from the pieces of enc, with no State in hand. rename must be injective on
// the endpoints.
func (e *Endpoints) AppendRenamed(dst []byte, enc string, rename func(int) int) []byte {
	_, val := atom(enc, 1) // enc[:val] is '[' and the wrapped value
	dst = append(dst, enc[:val]...)

	var scratch [16]renamedShare
	for q := range 2 {
		queues := scratch[:0]
		for i := range e.eps {
			if pos := e.eps[i].queue[q]; pos != 0 {
				queues = append(queues, renamedShare{id: rename(int(e.eps[i].id)), queue: pos})
			}
		}
		sortByDecimal(queues)
		dst = codec.AppendWrapped(dst, func(d []byte) []byte {
			d = append(d, '<')
			for _, s := range queues {
				d = append(d, '(')
				d = codec.AppendInt(d, s.id)
				d = codec.AppendAtom(d, list(enc, s.queue))
				d = append(d, ')')
			}
			return append(d, '>')
		})
	}
	failed := scratch[:0]
	for i := range e.eps {
		if e.eps[i].failed {
			failed = append(failed, renamedShare{id: rename(int(e.eps[i].id))})
		}
	}
	sortByDecimal(failed)
	dst = codec.AppendWrapped(dst, func(d []byte) []byte {
		d = append(d, '{')
		for _, s := range failed {
			d = codec.AppendInt(d, s.id)
		}
		return append(d, '}')
	})
	return append(dst, ']')
}

// renamedShare is one queue or failed mark on its way into a renamed
// encoding.
type renamedShare struct {
	id    int
	queue uint32
}

// sortByDecimal orders by the decimal encoding of the endpoint, the order of
// the canonical map and set encodings. Endpoint counts are tiny.
func sortByDecimal(s []renamedShare) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && decimalLess(s[j].id, s[j-1].id); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Renamed returns the state with every endpoint i relabelled rename(i):
// queues re-keyed, the failed set relabelled, the value untouched. rename
// must be injective on the endpoints. A buffer family or failed set the
// relabelling does not move is shared with st.
func (st State) Renamed(rename func(int) int) State {
	out := st
	out.Inv = st.Inv.Rekeyed(rename, nil)
	out.Resp = st.Resp.Rekeyed(rename, nil)
	if st.Failed.Len() > 0 {
		members := st.Failed.Members()
		moved := false
		for i, m := range members {
			members[i] = rename(m)
			moved = moved || members[i] != m
		}
		if moved {
			out.Failed = codec.NewIntSet(members...)
		}
	}
	return out
}
