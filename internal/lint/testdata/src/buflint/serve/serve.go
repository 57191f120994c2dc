// Package serve is a buflint fixture for the batcher bodies: any
// per-batch slice make in run/fill/drain churns at request rate, whatever
// the element type — the scratch and slot buffers exist to be reused.
package serve

type batcher struct {
	scratch []int
}

func (b *batcher) run(n int) []int {
	xs := make([]int, 0, n) // want "per-call make of a slice in hot path serve.run"
	ss := make([]string, n) // want "per-call make of a slice in hot path serve.run"
	_ = ss
	if cap(b.scratch) < n {
		b.scratch = make([]int, 0, n) // grow-once behind a cap guard: clean
	}
	return append(xs, n)
}

func (b *batcher) fill(n int) []int {
	return make([]int, n) // want "per-call make of a slice in hot path serve.fill"
}

func (b *batcher) drain() {
	_ = make([]byte, 8) // want "per-call make of a slice in hot path serve.drain"
}

func (b *batcher) helper(n int) []int {
	return make([]int, n) // not a batcher body: clean
}
