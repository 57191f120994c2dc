package parallel

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetDefault(5)
	if got := Workers(0); got != 5 {
		t.Fatalf("Workers(0) after SetDefault(5) = %d", got)
	}
	if got := Workers(2); got != 2 {
		t.Fatalf("explicit count must override default, got %d", got)
	}
	SetDefault(0)
	if got := Default(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Default() after reset = %d", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := New(workers)
		if p.Size() != workers {
			t.Fatalf("Size() = %d, want %d", p.Size(), workers)
		}
		const n = 153
		hits := make([]atomic.Int64, n)
		err := p.For(n, func(worker, i int) error {
			if worker < 0 || worker >= workers {
				return fmt.Errorf("worker id %d out of range", worker)
			}
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestForEmptyAndSingle(t *testing.T) {
	p := New(4)
	if err := p.For(0, func(worker, i int) error { return fmt.Errorf("must not run") }); err != nil {
		t.Fatal(err)
	}
	ran := 0
	if err := p.For(1, func(worker, i int) error { ran++; return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("single item ran %d times", ran)
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		err := p.For(64, func(worker, i int) error {
			if i%10 == 7 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-7" {
			t.Fatalf("workers=%d: err = %v, want fail-7", workers, err)
		}
	}
}

func TestMapOrderedAndDeterministic(t *testing.T) {
	want := make([]int, 200)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 3, 8} {
		got, err := Map(New(workers), len(want), func(worker, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapPropagatesError(t *testing.T) {
	_, err := Map(New(4), 32, func(worker, i int) (int, error) {
		if i == 5 {
			return 0, fmt.Errorf("boom")
		}
		return i, nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}
