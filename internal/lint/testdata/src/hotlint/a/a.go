// Package a is a hotlint fixture: //hsd:hotpath roots whose transitive
// call trees carry every class of hot-loop breach, plus the clean idioms
// the analyzer must not flag.
package a

import (
	"fmt"
	"sort"
	"unsafe"

	"hotspot/internal/lint/testdata/src/hotlint/b"
)

type adder interface{ Add(int) int }

type impl struct{ n int }

func (i *impl) Add(v int) int { return i.n + v }

// Root is a hot-path root; everything below is checked transitively.
//
//hsd:hotpath
func Root(m map[int]int, ch chan int, xs []int, f func() int, a adder) int {
	s := 0
	for k := range m { // want "range over a map on hot path"
		s += k
	}
	ch <- s            // want "channel send on hot path"
	fmt.Println(s)     // want "fmt.Println on hot path"
	sort.Ints(xs)      // want "sort.Ints on hot path"
	s += f()           // want "func value on hot path"
	s += a.Add(1)      // want "interface-dispatched call"
	xs = append(xs, s) // want "append without capacity evidence"
	s += helper()
	s += b.Work()
	return s + len(xs)
}

// helper has no annotation; it is hot because Root reaches it.
func helper() int {
	x := <-tick // want "channel receive on hot path"
	return x
}

var tick = make(chan int, 1)

// Clean exercises every exempt idiom: evidenced appends, the exact-size
// nil-conversion clone, the cap-guard grow, a qualified builtin
// (unsafe.Slice, not a func value), and error-construction cold paths.
// None of it is a finding.
//
//hsd:hotpath
func Clean(xs []int) ([]int, error) {
	out := make([]int, 0, len(xs))
	out = append(out, xs...)
	clone := append([]int(nil), xs...)
	if len(clone) == 0 {
		return nil, fmt.Errorf("empty input of cap %d", cap(xs))
	}
	_ = unsafe.Slice(&clone[0], len(clone))
	if cap(out) < 8 {
		out = append(out, 0)
	}
	return out, nil
}

// Waived carries a deliberate breach silenced by a justified waiver.
//
//hsd:hotpath
func Waived() {
	fmt.Println("once") //hsd:allow hotlint fixture: deliberate waived breach
}

// ColdCaller declares its call edge cold; the walk must not enter
// initTables, so the breach inside it is not a finding.
//
//hsd:hotpath
func ColdCaller() {
	initTables() //hsd:cold fixture: once-per-process table build
}

func initTables() {
	fmt.Println("building tables")
}

// NotHot is reached by no root; its breaches are not findings.
func NotHot(m map[int]int) {
	for range m {
	}
	fmt.Println("fine here")
}
