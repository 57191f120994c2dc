package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

// saveSmallNet serializes a tiny PaperNet and returns the bytes.
func saveSmallNet(t testing.TB) []byte {
	t.Helper()
	return saveSmallNetWith(t, nil)
}

// saveSmallNetWith serializes a tiny PaperNet after edit, when non-nil,
// has changed it.
func saveSmallNetWith(t testing.TB, edit func(*Network)) []byte {
	t.Helper()
	cfg := PaperNetConfig{InChannels: 2, SpatialSize: 4, Conv1Maps: 2, Conv2Maps: 2, FC1: 4, DropoutRate: 0.5, Seed: 3}
	net, err := NewPaperNet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(net)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// nanDropoutRate sets every dropout layer's rate to NaN, which NewDropout
// would refuse; Save writes it as it is.
func nanDropoutRate(net *Network) {
	for _, l := range net.Layers() {
		if d, ok := l.(*Dropout); ok {
			d.rate = math.NaN()
		}
	}
}

func TestCheckpointHeaderWritten(t *testing.T) {
	raw := saveSmallNet(t)
	if len(raw) < headerLen {
		t.Fatalf("checkpoint only %d bytes, shorter than its header", len(raw))
	}
	if string(raw[:len(checkpointMagic)]) != checkpointMagic {
		t.Fatalf("checkpoint starts with %q, want magic %q", raw[:len(checkpointMagic)], checkpointMagic)
	}
	version := int(raw[len(checkpointMagic)])<<8 | int(raw[len(checkpointMagic)+1])
	if version != checkpointVersion {
		t.Fatalf("header version %d, want %d", version, checkpointVersion)
	}
	if _, err := Load(bytes.NewReader(raw)); err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	raw := saveSmallNet(t)
	raw[0] = 'X'
	_, err := Load(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "not a network checkpoint") {
		t.Fatalf("bad magic: got %v, want a not-a-checkpoint error", err)
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	raw := saveSmallNet(t)
	raw[len(checkpointMagic)] = 0xff // version 0xff01: far future
	_, err := Load(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version: got %v, want a version error", err)
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	raw := saveSmallNet(t)
	// Truncation inside the header and inside the gob payload both name
	// truncation, not a raw gob failure.
	for _, n := range []int{0, 3, headerLen - 1, headerLen + 1, len(raw) / 2, len(raw) - 1} {
		_, err := Load(bytes.NewReader(raw[:n]))
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncated at %d bytes: got %v, want a truncation error", n, err)
		}
	}
}

// encodeSpec frames a hand-built spec as a checkpoint, the way a hostile
// or corrupt file reaches Load.
func encodeSpec(t *testing.T, spec netSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	buf.Write([]byte{byte(checkpointVersion >> 8), byte(checkpointVersion)})
	if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadBoundsGeometryBeforeAllocating feeds Load small files whose
// declared layer geometry disagrees with their payload. Each fails with
// ErrCheckpointGeometry, and none allocates what the geometry declares: a
// 10⁶×10⁶ dense layer would need 8 TB.
func TestLoadBoundsGeometryBeforeAllocating(t *testing.T) {
	small := [][]float64{make([]float64, 6), make([]float64, 2)}
	cases := []struct {
		name string
		spec layerSpec
	}{
		{"huge dense, small payload", layerSpec{Kind: "dense", Name: "fc", In: 1_000_000, Out: 1_000_000,
			Weights: small, Shapes: [][]int{{2, 3}, {2}}}},
		{"huge dense, matching shapes", layerSpec{Kind: "dense", Name: "fc", In: 1_000_000, Out: 1_000_000,
			Weights: small, Shapes: [][]int{{1_000_000, 1_000_000}, {1_000_000}}}},
		{"dense product overflows", layerSpec{Kind: "dense", Name: "fc", In: 1 << 40, Out: 1 << 40,
			Weights: small, Shapes: [][]int{{1 << 40, 1 << 40}, {1 << 40}}}},
		{"conv fan-in overflows", layerSpec{Kind: "conv", Name: "c", InC: 1 << 30, OutC: 2, K: 1 << 20, Stride: 1,
			Weights: small, Shapes: [][]int{{2, 3}, {2}}}},
		{"conv negative pad", layerSpec{Kind: "conv", Name: "c", InC: 1, OutC: 2, K: 1, Stride: 1, Pad: -1,
			Weights: [][]float64{make([]float64, 2), make([]float64, 2)}, Shapes: [][]int{{2, 1}, {2}}}},
		{"dense zero width", layerSpec{Kind: "dense", Name: "fc", In: 0, Out: 2,
			Weights: [][]float64{nil, make([]float64, 2)}, Shapes: [][]int{{2, 0}, {2}}}},
		{"extra shape dimension", layerSpec{Kind: "dense", Name: "fc", In: 3, Out: 2,
			Weights: small, Shapes: [][]int{{2, 3, 1}, {2}}}},
		{"missing bias", layerSpec{Kind: "dense", Name: "fc", In: 3, Out: 2,
			Weights: small[:1], Shapes: [][]int{{2, 3}}}},
		{"relu with weights", layerSpec{Kind: "relu", Name: "r", Weights: small[1:], Shapes: [][]int{{2}}}},
	}
	for _, tc := range cases {
		raw := encodeSpec(t, netSpec{Version: 1, Layers: []layerSpec{tc.spec}})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCheckpointGeometry) {
			t.Fatalf("%s: got %v, want ErrCheckpointGeometry", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.spec.Name) {
			t.Fatalf("%s: error %q does not name layer %q", tc.name, err, tc.spec.Name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Fatalf("%s: Load allocated %d bytes for a %d-byte file", tc.name, n, len(raw))
		}
	}
}

// TestLoadRejectsNonFiniteWeights saves a net with one NaN and one +Inf
// weight: Load names the layer, parameter and index of the first one.
func TestLoadRejectsNonFiniteWeights(t *testing.T) {
	cfg := PaperNetConfig{InChannels: 2, SpatialSize: 4, Conv1Maps: 2, Conv2Maps: 2, FC1: 4, DropoutRate: 0.5, Seed: 3}
	for _, tc := range []struct {
		param string
		index int
		v     float64
		want  string
	}{
		{"conv1-2.w", 5, math.NaN(), "param conv1-2.w index 5 is NaN"},
		{"fc1.b", 3, math.Inf(1), "param fc1.b index 3 is +Inf"},
	} {
		net, err := NewPaperNet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range net.Params() {
			if p.Name == tc.param {
				p.W.Data()[tc.index] = tc.v
			}
		}
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatal(err)
		}
		_, err = Load(&buf)
		if !errors.Is(err, ErrNonFiniteWeight) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s[%d] = %v: got %v, want ErrNonFiniteWeight naming %q", tc.param, tc.index, tc.v, err, tc.want)
		}
	}
}

// TestLoadRejectsNaNDropoutRate: a checkpoint whose dropout rate is NaN
// would serve normally (dropout is the identity at inference) and then
// train to all-NaN outputs, so Load refuses it, naming the layer.
func TestLoadRejectsNaNDropoutRate(t *testing.T) {
	raw := saveSmallNetWith(t, nanDropoutRate)
	_, err := Load(bytes.NewReader(raw))
	if !errors.Is(err, ErrCheckpointGeometry) || !strings.Contains(err.Error(), "(dropout1): dropout rate NaN") {
		t.Fatalf("NaN dropout rate: got %v, want ErrCheckpointGeometry naming dropout1", err)
	}
}

// FuzzLoad feeds Load arbitrary bytes. Load must never panic, and a
// network it accepts must save to bytes that load again and save to the
// same bytes: a checkpoint spec holds no maps, so its gob encoding is
// deterministic. The seed corpus in testdata/fuzz/FuzzLoad holds a saved
// small paper net, truncations of it, a NaN dropout rate, a NaN weight and
// every TestLoadBoundsGeometryBeforeAllocating case.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		net, err := Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := net.Save(&first); err != nil {
			t.Fatalf("save a loaded network: %v", err)
		}
		back, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reload a saved network: %v", err)
		}
		if err := back.Save(&second); err != nil {
			t.Fatalf("save a reloaded network: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save, load, save changed the checkpoint: %d bytes, then %d", first.Len(), second.Len())
		}
	})
}
