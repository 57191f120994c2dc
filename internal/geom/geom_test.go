package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := R(10, 20, 110, 70)
	if r.W() != 100 || r.H() != 50 {
		t.Fatalf("W/H = %d/%d", r.W(), r.H())
	}
	if r.Area() != 5000 {
		t.Fatalf("Area = %d", r.Area())
	}
	if r.Empty() {
		t.Fatal("non-empty rect reported empty")
	}
	if !R(5, 5, 5, 9).Empty() {
		t.Fatal("zero-width rect should be empty")
	}
	if R(3, 3, 1, 1).W() != 0 {
		t.Fatal("inverted rect should have zero width")
	}
}

func TestCanon(t *testing.T) {
	r := R(10, 8, 2, 4).Canon()
	if r != R(2, 4, 10, 8) {
		t.Fatalf("Canon = %v", r)
	}
	if R(5, 5, 5, 5).Canon() != (Rect{}) {
		t.Fatal("empty rect should canonicalize to zero value")
	}
}

func TestIntersect(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	got := a.Intersect(b)
	if got != R(5, 5, 10, 10) {
		t.Fatalf("Intersect = %v", got)
	}
	c := R(20, 20, 30, 30)
	if a.Intersect(c) != (Rect{}) {
		t.Fatal("disjoint intersect should be zero rect")
	}
	// Edge-touching rects do not overlap (half-open intervals).
	if !a.Intersect(R(10, 0, 20, 10)).Empty() {
		t.Fatal("edge-touching rects should not overlap")
	}
}

func TestContains(t *testing.T) {
	r := R(0, 0, 10, 10)
	if !r.ContainsRect(R(2, 2, 8, 8)) {
		t.Fatal("contained rect not detected")
	}
	if r.ContainsRect(R(5, 5, 11, 8)) {
		t.Fatal("overhanging rect reported contained")
	}
	if !r.ContainsRect(Rect{}) {
		t.Fatal("empty rect should be contained anywhere")
	}
}

func TestUnionTranslate(t *testing.T) {
	a := R(0, 0, 4, 4)
	b := R(10, 10, 12, 12)
	if a.Union(b) != R(0, 0, 12, 12) {
		t.Fatalf("Union = %v", a.Union(b))
	}
	if a.Union(Rect{}) != a {
		t.Fatal("union with empty should be identity")
	}
	if (Rect{}).Union(b) != b {
		t.Fatal("union of empty with b should be b")
	}
	if a.Translate(3, -2) != R(3, -2, 7, 2) {
		t.Fatalf("Translate = %v", a.Translate(3, -2))
	}
}

func TestUnionArea(t *testing.T) {
	cases := []struct {
		name  string
		rects []Rect
		want  int64
	}{
		{"empty", nil, 0},
		{"single", []Rect{R(0, 0, 10, 10)}, 100},
		{"disjoint", []Rect{R(0, 0, 10, 10), R(20, 0, 30, 10)}, 200},
		{"overlap", []Rect{R(0, 0, 10, 10), R(5, 0, 15, 10)}, 150},
		{"nested", []Rect{R(0, 0, 10, 10), R(2, 2, 4, 4)}, 100},
		{"identical", []Rect{R(0, 0, 5, 5), R(0, 0, 5, 5)}, 25},
		{"cross", []Rect{R(0, 4, 12, 8), R(4, 0, 8, 12)}, 12*4 + 4*12 - 16},
		{"with empties", []Rect{{}, R(0, 0, 3, 3), {}}, 9},
	}
	for _, c := range cases {
		if got := UnionArea(c.rects); got != c.want {
			t.Errorf("%s: UnionArea = %d, want %d", c.name, got, c.want)
		}
	}
}

// Property: union area is at most the sum of areas and at least the max area.
func TestUnionAreaBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		rects := make([]Rect, n)
		var sum, maxA int64
		for i := range rects {
			x, y := r.Intn(100), r.Intn(100)
			w, h := 1+r.Intn(40), 1+r.Intn(40)
			rects[i] = R(x, y, x+w, y+h)
			a := rects[i].Area()
			sum += a
			if a > maxA {
				maxA = a
			}
		}
		u := UnionArea(rects)
		return u <= sum && u >= maxA
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: union area of disjoint translates is exactly additive.
func TestUnionAreaDisjointAdditive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		rects := make([]Rect, n)
		var sum int64
		for i := range rects {
			w, h := 1+r.Intn(20), 1+r.Intn(20)
			// Space each rect in its own 100-wide column: guaranteed disjoint.
			x := i * 100
			rects[i] = R(x, 0, x+w, h)
			sum += rects[i].Area()
		}
		return UnionArea(rects) == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewClipClipsGeometry(t *testing.T) {
	frame := R(0, 0, 100, 100)
	c := NewClip(frame, []Rect{
		R(-50, 10, 50, 20),    // hangs off the left
		R(90, 90, 200, 200),   // hangs off the corner
		R(200, 200, 300, 300), // fully outside
		R(40, 12, 10, 2),      // needs canonicalization
	})
	if len(c.Rects) != 3 {
		t.Fatalf("clip kept %d rects, want 3", len(c.Rects))
	}
	for _, r := range c.Rects {
		if !frame.ContainsRect(r) {
			t.Fatalf("rect %v escapes frame", r)
		}
	}
}

func TestClipNormalize(t *testing.T) {
	c := NewClip(R(100, 200, 300, 400), []Rect{R(150, 250, 200, 300)})
	n := c.Normalize()
	if n.Frame != R(0, 0, 200, 200) {
		t.Fatalf("normalized frame = %v", n.Frame)
	}
	if n.Rects[0] != R(50, 50, 100, 100) {
		t.Fatalf("normalized rect = %v", n.Rects[0])
	}
	// Original untouched.
	if c.Rects[0] != R(150, 250, 200, 300) {
		t.Fatal("Normalize mutated the original clip")
	}
}

func TestClipDensity(t *testing.T) {
	c := NewClip(R(0, 0, 10, 10), []Rect{R(0, 0, 5, 10)})
	if c.Density() != 0.5 {
		t.Fatalf("Density = %v, want 0.5", c.Density())
	}
	// Overlapping geometry must not double-count.
	c2 := NewClip(R(0, 0, 10, 10), []Rect{R(0, 0, 5, 10), R(0, 0, 5, 10)})
	if c2.Density() != 0.5 {
		t.Fatalf("overlap Density = %v, want 0.5", c2.Density())
	}
	empty := Clip{}
	if empty.Density() != 0 {
		t.Fatal("empty clip density should be 0")
	}
}

func TestMergeTouching(t *testing.T) {
	// Two horizontally abutting rects merge into one.
	got := MergeTouching([]Rect{R(0, 0, 5, 10), R(5, 0, 10, 10)})
	if len(got) != 1 || got[0] != R(0, 0, 10, 10) {
		t.Fatalf("horizontal merge = %v", got)
	}
	// Vertical merge.
	got = MergeTouching([]Rect{R(0, 0, 10, 5), R(0, 5, 10, 10)})
	if len(got) != 1 || got[0] != R(0, 0, 10, 10) {
		t.Fatalf("vertical merge = %v", got)
	}
	// Contained rect collapses.
	got = MergeTouching([]Rect{R(0, 0, 10, 10), R(2, 2, 5, 5)})
	if len(got) != 1 || got[0] != R(0, 0, 10, 10) {
		t.Fatalf("containment merge = %v", got)
	}
	// Misaligned rects stay separate.
	got = MergeTouching([]Rect{R(0, 0, 5, 10), R(5, 1, 10, 11)})
	if len(got) != 2 {
		t.Fatalf("misaligned rects merged: %v", got)
	}
	// Chain of three merges to one.
	got = MergeTouching([]Rect{R(0, 0, 2, 4), R(2, 0, 5, 4), R(5, 0, 9, 4)})
	if len(got) != 1 || got[0] != R(0, 0, 9, 4) {
		t.Fatalf("chain merge = %v", got)
	}
}

// Property: MergeTouching preserves union area.
func TestMergeTouchingPreservesArea(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		rects := make([]Rect, n)
		for i := range rects {
			x, y := r.Intn(20), r.Intn(20)
			rects[i] = R(x, y, x+1+r.Intn(10), y+1+r.Intn(10))
		}
		return UnionArea(MergeTouching(rects)) == UnionArea(rects)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRectString(t *testing.T) {
	if R(1, 2, 3, 4).String() != "(1,2)-(3,4)" {
		t.Fatalf("String = %q", R(1, 2, 3, 4).String())
	}
}
