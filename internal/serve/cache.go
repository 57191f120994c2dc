package serve

import (
	"container/list"
	"math"
	"math/bits"
	"sync"

	"hotspot/internal/raster"
)

// clipCache is a bounded LRU of hotspot probabilities keyed by a hash of
// the rasterized core window. Repeated clips — the common case in an
// online flow, where the same pattern is queried from many contexts — skip
// the DCT and the CNN forward pass entirely. Entries are whole-model
// artifacts: the server clears the cache when a reload swaps the network.
//
// All methods are safe for concurrent use.
type clipCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[uint64]*list.Element
}

// cacheEntry is one key → probability binding plus its LRU position.
type cacheEntry struct {
	key  uint64
	prob float64
}

// newClipCache builds a cache holding at most cap entries; cap <= 0
// disables caching (every lookup misses, every insert is dropped).
func newClipCache(cap int) *clipCache {
	c := &clipCache{cap: cap}
	if cap > 0 {
		c.order = list.New()
		c.entries = make(map[uint64]*list.Element, cap)
	}
	return c
}

// get returns the cached probability for key, marking it most recently
// used.
func (c *clipCache) get(key uint64) (float64, bool) {
	if c.cap <= 0 {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return 0, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).prob, true
}

// add inserts (or refreshes) key → prob, evicting the least recently used
// entry when full.
func (c *clipCache) add(key uint64, prob float64) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock() //hsd:allow hotlint LRU fill is one short critical section per served request, off the numeric path
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).prob = prob
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, prob: prob})
}

// clear drops every entry (model reload invalidates all cached outputs).
func (c *clipCache) clear() {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.entries)
}

// len returns the current entry count.
func (c *clipCache) len() int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Multipliers of the image hash's rounds, from xxHash64.
const (
	prime1 uint64 = 11400714785074694791
	prime2 uint64 = 14029467366897019727
	prime3 uint64 = 1609587929392839161
	prime4 uint64 = 9650029242287828579
)

// hashRound mixes one 64-bit word into a lane: multiply, rotate, multiply.
func hashRound(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*prime2, 31) * prime1
}

// hashFold folds one word into the merged hash.
func hashFold(h, w uint64) uint64 {
	return bits.RotateLeft64(h^hashRound(0, w), 27)*prime1 + prime4
}

// hashImage fingerprints a rasterized core window from the bit patterns
// of its stored rows, its row marks and its dimensions, one 64-bit word at
// a time. The marks and the stored rows together determine every pixel,
// and both are a function of the pixels (raster.Rows), so the key depends
// on the pixels alone — equal cores share a key whether a bitmap or
// geometry drew them — while a core whose rows mostly repeat hashes a few
// of them.
//
// Four independent lanes each take every fourth pixel of a stored row
// through an xxHash64-style round, so the multiplies of neighbouring
// pixels overlap instead of queueing behind one chain; a row's last
// W mod 4 pixels go to the first lanes. The lanes are then merged, the
// marks folded in 64 rows to a word, then W and H, and the result
// avalanched. The bit-pattern basis means the key — unlike any rounded
// representation — can never merge clips whose tensors would differ
// except by a 64-bit collision. The key never leaves the LRU.
func hashImage(im *raster.Rows) uint64 {
	w, rep := im.W, im.Rep
	v1, v2, v3, v4 := prime1, prime2, prime3, prime4
	for off := 0; w > 0 && off < len(im.Pix); off += w {
		row := im.Pix[off : off+w]
		i := 0
		for ; i+4 <= len(row); i += 4 {
			p := row[i : i+4 : i+4]
			v1 = hashRound(v1, math.Float64bits(p[0]))
			v2 = hashRound(v2, math.Float64bits(p[1]))
			v3 = hashRound(v3, math.Float64bits(p[2]))
			v4 = hashRound(v4, math.Float64bits(p[3]))
		}
		switch tail := row[i:]; len(tail) {
		case 3:
			v3 = hashRound(v3, math.Float64bits(tail[2]))
			fallthrough
		case 2:
			v2 = hashRound(v2, math.Float64bits(tail[1]))
			fallthrough
		case 1:
			v1 = hashRound(v1, math.Float64bits(tail[0]))
		}
	}
	h := bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
	for _, v := range [4]uint64{v1, v2, v3, v4} {
		h = (h^hashRound(0, v))*prime1 + prime4
	}
	for y0 := 0; y0 < im.H; y0 += 64 {
		var word uint64
		for y := y0; y < min(y0+64, len(rep)); y++ {
			if rep[y] {
				word |= 1 << (y - y0)
			}
		}
		h = hashFold(h, word)
	}
	h = hashFold(h, uint64(im.W))
	h = hashFold(h, uint64(im.H))
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}
