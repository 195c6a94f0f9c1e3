package core

import (
	"testing"
	"testing/quick"
)

func TestWSSignatureTouch(t *testing.T) {
	var s WSSignature
	if s.Population() != 0 {
		t.Fatal("fresh signature must be empty")
	}
	s.Touch(0x1000)
	if s.Population() != 1 {
		t.Fatalf("population = %d, want 1", s.Population())
	}
	// Same instruction block (64B): same bit.
	s.Touch(0x1004)
	s.Touch(0x103C)
	if s.Population() != 1 {
		t.Errorf("same-block touches must not add bits: %d", s.Population())
	}
	// Different block: new bit (unless hash collision; these don't collide).
	s.Touch(0x2000)
	if s.Population() != 2 {
		t.Errorf("population = %d, want 2", s.Population())
	}
}

func TestWSSignatureReset(t *testing.T) {
	var s WSSignature
	s.Touch(0x40)
	s.Reset()
	if s.Population() != 0 {
		t.Error("Reset must clear the signature")
	}
}

func TestRelativeDistance(t *testing.T) {
	var a, b WSSignature
	if d := a.RelativeDistance(&b); d != 0 {
		t.Errorf("two empty signatures: δ = %v, want 0", d)
	}
	a.Touch(0x1000)
	a.Touch(0x2000)
	b.Touch(0x1000)
	b.Touch(0x2000)
	if d := a.RelativeDistance(&b); d != 0 {
		t.Errorf("identical signatures: δ = %v, want 0", d)
	}
	var c WSSignature
	c.Touch(0x9000)
	c.Touch(0xA000)
	if d := a.RelativeDistance(&c); d != 1 {
		t.Errorf("disjoint signatures: δ = %v, want 1", d)
	}
	// Half overlap: A={1,2}, D={2,3}: xor=2, or=3.
	var dd WSSignature
	dd.Touch(0x2000)
	dd.Touch(0x3000)
	if got := a.RelativeDistance(&dd); got < 0.6 || got > 0.7 {
		t.Errorf("partial overlap: δ = %v, want 2/3", got)
	}
}

// Properties: δ is symmetric, in [0,1], and zero iff equal (as bit sets).
func TestRelativeDistanceProperties(t *testing.T) {
	mk := func(raw []uint16) *WSSignature {
		var s WSSignature
		for _, r := range raw {
			s.Touch(uint32(r) << 6)
		}
		return &s
	}
	f := func(ra, rb []uint16) bool {
		a, b := mk(ra), mk(rb)
		dab, dba := a.RelativeDistance(b), b.RelativeDistance(a)
		if dab != dba || dab < 0 || dab > 1 {
			return false
		}
		if (*a == *b) != (dab == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWSSTableClassify(t *testing.T) {
	tb := NewWSSTable(4, 0.3)
	var a WSSignature
	for i := 0; i < 20; i++ {
		a.Touch(uint32(0x1000 + i*64))
	}
	id0, matched := tb.Classify(&a)
	if matched || id0 != 0 {
		t.Fatalf("first classify = (%d, %v)", id0, matched)
	}
	// Slightly perturbed copy: within threshold.
	b := a
	b.Touch(0x9000)
	id1, matched := tb.Classify(&b)
	if !matched || id1 != id0 {
		t.Errorf("near-identical working set = (%d, %v), want (%d, true)", id1, matched, id0)
	}
	// Disjoint working set: new phase.
	var c WSSignature
	for i := 0; i < 20; i++ {
		c.Touch(uint32(0x80000 + i*64))
	}
	id2, matched := tb.Classify(&c)
	if matched || id2 == id0 {
		t.Errorf("disjoint working set = (%d, %v)", id2, matched)
	}
	if tb.PhasesAllocated() != 2 {
		t.Errorf("phases = %d, want 2", tb.PhasesAllocated())
	}
}

func TestWSSTableLRU(t *testing.T) {
	tb := NewWSSTable(2, 0.1)
	sig := func(base uint32) *WSSignature {
		var s WSSignature
		for i := uint32(0); i < 8; i++ {
			s.Touch(base + i*64)
		}
		return &s
	}
	a, b, c := sig(0x10000), sig(0x20000), sig(0x30000)
	idA, _ := tb.Classify(a)
	tb.Classify(b)
	tb.Classify(a) // touch A; B is LRU
	tb.Classify(c) // evicts B
	idA2, matched := tb.Classify(a)
	if !matched || idA2 != idA {
		t.Error("A must survive the eviction")
	}
	idB2, matched := tb.Classify(b)
	if matched {
		t.Errorf("B should have been evicted, got phase %d", idB2)
	}
}

func TestNewWSSTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewWSSTable(0, 0.1)
}

func TestClassifyRecordedWSSDispatch(t *testing.T) {
	// ClassifyRecorded with DetectorWSS must route to the WSS table.
	mk := func(base uint32) IntervalSignature {
		var s IntervalSignature
		for i := uint32(0); i < 10; i++ {
			s.WSS.Touch(base + i*64)
		}
		s.BBV = []float64{1, 0}
		return s
	}
	sigs := []IntervalSignature{mk(0x1000), mk(0x1000), mk(0x90000)}
	ids := ClassifyRecorded(DetectorWSS, 4, 0.2, 0, sigs)
	if ids[0] != ids[1] {
		t.Error("identical working sets must share a phase")
	}
	if ids[2] == ids[0] {
		t.Error("disjoint working set must be a new phase")
	}
	// Identical BBVs must NOT make WSS merge them — it only sees the WSS.
	table := NewWSSTable(4, 0.2)
	for i := range ids {
		if direct, _ := table.Classify(&sigs[i].WSS); ids[i] != direct {
			t.Errorf("dispatch mismatch at %d: %d vs %d", i, ids[i], direct)
		}
	}
}

func TestWSSKindString(t *testing.T) {
	if DetectorWSS.String() != "WSS" {
		t.Errorf("String() = %q", DetectorWSS.String())
	}
}
