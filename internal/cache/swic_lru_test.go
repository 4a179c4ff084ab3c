package cache

// Edge cases of swic interacting with replacement: the decompression
// handler claims lines with explicit writes rather than hardware fills,
// and those claims must participate in LRU exactly like fills — the
// paper's slowdown numbers depend on decompressed lines not being
// preferentially evicted (or wrongly pinned).

import "testing"

// fourWay returns a small 4-way cache with data storage (I-cache mode):
// 4 ways x 2 sets x 16-byte lines.
func fourWay(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: 128, LineBytes: 16, Ways: 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// setAddr returns the i-th distinct line address mapping to set 0.
func setAddr(c *Cache, i int) uint32 {
	sets := uint32(c.Config().Sets())
	return uint32(i) * sets * uint32(c.Config().LineBytes)
}

// TestSwicEvictionOrderInFullSet fills a set with four swic-claimed
// lines, touches them in a known order, and verifies further claims
// evict exactly in LRU order.
func TestSwicEvictionOrderInFullSet(t *testing.T) {
	c := fourWay(t)
	// Claim lines 0..3 -> set full, LRU order = claim order.
	slots := make([]int, 4)
	for i := 0; i < 4; i++ {
		slot, claimed := c.WriteWord(setAddr(c, i), uint32(0x100+i))
		if !claimed {
			t.Fatalf("claim %d: line already present", i)
		}
		slots[i] = slot
	}
	if c.Stats.SwicLines != 4 {
		t.Fatalf("SwicLines = %d, want 4", c.Stats.SwicLines)
	}
	if c.Stats.Evictions != 0 {
		t.Fatalf("%d evictions while the set had free ways", c.Stats.Evictions)
	}
	// Touch 0 and 1 via fetch hits: LRU victim order becomes 2, 3, 0, 1.
	for _, i := range []int{0, 1} {
		if slot, hit := c.Access(setAddr(c, i)); !hit || slot != slots[i] {
			t.Fatalf("line %d: slot %d hit %v, want a hit in slot %d", i, slot, hit, slots[i])
		}
	}
	for n, want := range []int{2, 3, 0, 1} {
		// The re-claim lands in the victim's slot.
		slot, claimed := c.WriteWord(setAddr(c, 4+n), 0xDEAD)
		if !claimed || slot != slots[want] {
			t.Fatalf("claim %d: slot %d claimed %v, want a new line in victim %d's slot %d",
				4+n, slot, claimed, want, slots[want])
		}
		if c.Probe(setAddr(c, want)) {
			t.Fatalf("claim %d should have evicted line %d", 4+n, want)
		}
		// The other original lines that are not yet evicted must survive.
		for _, keep := range []int{2, 3, 0, 1}[n+1:] {
			if !c.Probe(setAddr(c, keep)) {
				t.Fatalf("claim %d wrongly evicted line %d", 4+n, keep)
			}
		}
	}
	if c.Stats.Evictions != 4 {
		t.Fatalf("Evictions = %d, want 4", c.Stats.Evictions)
	}
	// Snapshot/Restore keeps every line in its slot.
	r := fourWay(t)
	if err := r.Restore(c.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for n, want := range []int{2, 3, 0, 1} {
		if slot, hit := r.Access(setAddr(c, 4+n)); !hit || slot != slots[want] {
			t.Fatalf("restored line %d: slot %d hit %v, want slot %d", 4+n, slot, hit, slots[want])
		}
	}
}

// TestSwicWriteToPresentLineRefreshesLRU: writing a word into an
// already-claimed line is a touch, not a claim — it must refresh LRU and
// must not count a new swic line.
func TestSwicWriteToPresentLineRefreshesLRU(t *testing.T) {
	c := fourWay(t)
	for i := 0; i < 4; i++ {
		c.WriteWord(setAddr(c, i), uint32(i))
	}
	// Re-write line 0 (completing a decompressed line word by word).
	if _, claimed := c.WriteWord(setAddr(c, 0)+4, 0xBEEF); claimed {
		t.Fatal("write to a present line must not claim")
	}
	if c.Stats.SwicLines != 4 {
		t.Fatalf("SwicLines = %d, want 4", c.Stats.SwicLines)
	}
	// Next claim must evict line 1 (now the oldest), not line 0.
	c.WriteWord(setAddr(c, 4), 1)
	if !c.Probe(setAddr(c, 0)) {
		t.Fatal("refreshed line 0 was evicted")
	}
	if c.Probe(setAddr(c, 1)) {
		t.Fatal("line 1 should have been the LRU victim")
	}
	// Both words of line 0 are intact.
	if w, ok := c.ReadWord(setAddr(c, 0)); !ok || w != 0 {
		t.Fatalf("line 0 word 0 = %#x, %v", w, ok)
	}
	if w, ok := c.ReadWord(setAddr(c, 0) + 4); !ok || w != 0xBEEF {
		t.Fatalf("line 0 word 1 = %#x, %v", w, ok)
	}
}

// TestSwicClaimZeroesRecycledData: a swic claim that recycles an evicted
// line's buffer must present zeroes for the words not yet written — the
// handler relies on never leaking a stale victim's instructions.
func TestSwicClaimZeroesRecycledData(t *testing.T) {
	c := fourWay(t)
	for i := 0; i < 4; i++ {
		for off := uint32(0); off < 16; off += 4 {
			c.WriteWord(setAddr(c, i)+off, 0xFFFFFFFF)
		}
	}
	// Claim a fifth line, writing only its first word.
	c.WriteWord(setAddr(c, 4), 0x1234)
	for off := uint32(4); off < 16; off += 4 {
		if w, ok := c.ReadWord(setAddr(c, 4) + off); !ok || w != 0 {
			t.Fatalf("recycled line offset %d = %#x (ok=%v), want 0", off, w, ok)
		}
	}
}

// TestSwicMixedWithFillsSharesLRU: hardware fills and swic claims
// compete for the same ways under one LRU clock.
func TestSwicMixedWithFillsSharesLRU(t *testing.T) {
	c := fourWay(t)
	data := make([]byte, 16)
	c.Fill(setAddr(c, 0), data) // oldest
	c.WriteWord(setAddr(c, 1), 1)
	c.Fill(setAddr(c, 2), data)
	c.WriteWord(setAddr(c, 3), 3)
	// A new fill must evict the oldest entry, the hardware-filled line 0.
	c.Fill(setAddr(c, 4), data)
	if c.Probe(setAddr(c, 0)) {
		t.Fatal("line 0 (oldest) survived")
	}
	for _, keep := range []int{1, 2, 3, 4} {
		if !c.Probe(setAddr(c, keep)) {
			t.Fatalf("line %d wrongly evicted", keep)
		}
	}
	// And a swic claim evicts the next-oldest, line 1.
	c.WriteWord(setAddr(c, 5), 5)
	if c.Probe(setAddr(c, 1)) {
		t.Fatal("line 1 (next oldest) survived")
	}
}
