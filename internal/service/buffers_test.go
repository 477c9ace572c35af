package service

import (
	"maps"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"

	"github.com/ioa-lab/boosting/internal/codec"
)

// bufs builds a Buffers from a map of queues; empty queues are dropped.
func bufs(m map[int][]string) Buffers {
	var b Buffers
	for i, items := range m {
		b = b.With(i, items)
	}
	return b
}

// referenceBuffers is the encoding of a buffer family as the map it used to
// be (the reference of internal/system's TestFingerprintFormatStable).
func referenceBuffers(buf map[int][]string) string {
	m := make(map[string]string, len(buf))
	for i, items := range buf {
		if len(items) == 0 {
			continue
		}
		m[strconv.Itoa(i)] = codec.List(items)
	}
	return codec.Map(m)
}

// TestBuffersModel runs random push, pop, replace and rename sequences on
// Buffers and on a map model side by side, now and then going back to an
// older value to branch off it. After every operation the value must encode
// as the model does, decode back through ParseStatePrefix, hold the model's
// queues, and leave every older value encoding as it did: no update is
// visible through a value it was made from. The endpoints' decimal order
// (10 < 11 < 2) differs from their numeric order.
func TestBuffersModel(t *testing.T) {
	ids := []int{2, 10, 11}
	type snapshot struct {
		b     Buffers
		model map[int][]string
		enc   string
	}
	for seed := range uint64(50) {
		rng := rand.New(rand.NewPCG(seed, 1))
		var b Buffers
		model := map[int][]string{}
		var history []snapshot
		for step := range 60 {
			if len(history) > 0 && rng.IntN(4) == 0 {
				h := history[rng.IntN(len(history))]
				b, model = h.b, maps.Clone(h.model)
			}
			i := ids[rng.IntN(len(ids))]
			item := strconv.Itoa(step) + ":" + strconv.Itoa(i)
			var op string
			switch rng.IntN(5) {
			case 0, 1:
				op = "push"
				b = b.pushed(i, item)
				model[i] = append(slices.Clone(model[i]), item)
			case 2:
				op = "pop"
				var head string
				var ok bool
				b, head, ok = b.popped(i)
				if want := len(model[i]) > 0; ok != want {
					t.Fatalf("seed %d step %d: pop(%d) ok = %v, model has %d items", seed, step, i, ok, len(model[i]))
				}
				if ok {
					if head != model[i][0] {
						t.Fatalf("seed %d step %d: pop(%d) = %q, model head %q", seed, step, i, head, model[i][0])
					}
					model[i] = model[i][1:]
				}
			case 3:
				op = "replace"
				items := make([]string, rng.IntN(3))
				for k := range items {
					items[k] = item + "." + strconv.Itoa(k)
				}
				b = b.With(i, items)
				model[i] = items
			case 4:
				op = "rename"
				perm := rng.Perm(len(ids))
				rename := func(id int) int {
					if k := slices.Index(ids, id); k >= 0 {
						return ids[perm[k]]
					}
					return id
				}
				var rewrite func(string) string
				if rng.IntN(2) == 0 {
					rewrite = func(s string) string { return s + "'" }
				}
				b = b.Rekeyed(rename, rewrite)
				renamed := map[int][]string{}
				for id, items := range model {
					if rewrite != nil {
						items = slices.Clone(items)
						for k := range items {
							items[k] = rewrite(items[k])
						}
					}
					renamed[rename(id)] = items
				}
				model = renamed
			}
			want := referenceBuffers(model)
			if got := string(b.appendFingerprint(nil)); got != want {
				t.Fatalf("seed %d step %d (%s %d): encodes\n%q\nmodel encodes\n%q", seed, step, op, i, got, want)
			}
			for _, id := range ids {
				if !slices.Equal(b.Queue(id), model[id]) {
					t.Fatalf("seed %d step %d (%s %d): queue %d = %q, model %q", seed, step, op, i, id, b.Queue(id), model[id])
				}
			}
			st := State{Val: "v", Inv: b, Resp: b.Rekeyed(func(id int) int { return id + 1 }, nil), Failed: codec.NewIntSet(10)}
			enc := st.Fingerprint()
			back, rest, err := ParseStatePrefix(enc)
			if err != nil || rest != "" || back.Fingerprint() != enc {
				t.Fatalf("seed %d step %d: %q does not round-trip: %v", seed, step, enc, err)
			}
			for _, id := range ids {
				if !slices.Equal(back.Inv.Queue(id), model[id]) {
					t.Fatalf("seed %d step %d: decoded queue %d = %q, model %q", seed, step, id, back.Inv.Queue(id), model[id])
				}
			}
			history = append(history, snapshot{b: b, model: maps.Clone(model), enc: want})
			for k, h := range history {
				if got := string(h.b.appendFingerprint(nil)); got != h.enc {
					t.Fatalf("seed %d step %d: the value of step %d changed from\n%q\nto\n%q", seed, step, k, h.enc, got)
				}
			}
		}
	}
}
