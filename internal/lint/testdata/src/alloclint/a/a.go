// Package a is an alloclint fixture: functions under the noalloc
// directive are checked against the compiler's escape analysis.
package a

// Sink keeps escapes observable: anything assigned here leaves the frame.
var Sink []float64

// Escaping allocates a buffer that escapes to the heap — a finding.
//
//hsd:noalloc
func Escaping(n int) {
	buf := make([]float64, n) // want "heap allocation in //hsd:noalloc .*a\\.Escaping"
	Sink = buf
}

// Clean writes in place; stack-only work is not a finding.
//
//hsd:noalloc
func Clean(dst []float64, v float64) float64 {
	s := 0.0
	for i := range dst {
		dst[i] = v
		s += v
	}
	return s
}

// Waived escapes too, but the justified waiver suppresses the finding.
//
//hsd:noalloc
func Waived(n int) {
	Sink = make([]float64, n) //hsd:allow alloclint fixture: deliberate waived escape
}

// Free allocates without the directive; alloclint does not police it.
func Free(n int) []float64 {
	return make([]float64, n)
}
