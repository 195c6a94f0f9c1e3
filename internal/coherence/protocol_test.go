package coherence

import (
	"testing"
	"testing/quick"

	"dsmphase/internal/cache"
	"dsmphase/internal/memory"
	"dsmphase/internal/network"
)

// testProtocol builds a small n-proc system with tiny caches so
// evictions happen quickly, and address>>20 selecting the home node.
func testProtocol(n int) *DirectoryProtocol {
	l1 := cache.Config{SizeBytes: 256, Ways: 1, LineBytes: 32, HitCycles: 1}
	l2 := cache.Config{SizeBytes: 1024, Ways: 2, LineBytes: 32, HitCycles: 12}
	net := network.New(n, network.DefaultConfig())
	home := NewHomeMap(20-5, n) // (line·32 >> 20) % n
	return NewDirectory(Params{
		N: n, L1: l1, L2: l2, Mem: memory.DefaultConfig(), Net: net, Costs: DefaultCosts(), Home: home,
	})
}

// addrAt returns a byte address homed at node h with the given offset.
func addrAt(h int, off uint64) uint64 { return uint64(h)<<20 | off }

func TestLineStateString(t *testing.T) {
	cases := map[LineState]string{Uncached: "U", SharedState: "S", ModifiedState: "M", LineState(7): "?"}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d: %q != %q", s, got, want)
		}
	}
}

func TestDirectoryBasics(t *testing.T) {
	d := NewDirectoryTable()
	if d.Lookup(5).State != Uncached {
		t.Error("absent line must be Uncached")
	}
	d.AddSharer(5, 2)
	d.AddSharer(5, 3)
	e := d.Lookup(5)
	if e.State != SharedState || e.Sharers != 0b1100 {
		t.Errorf("entry = %+v", e)
	}
	d.RemoveSharer(5, 2)
	if d.Lookup(5).Sharers != 0b1000 {
		t.Error("RemoveSharer failed")
	}
	d.RemoveSharer(5, 3)
	if d.Lookup(5).State != Uncached || d.Len() != 0 {
		t.Error("empty sharer set must clear the entry")
	}
	d.SetOwner(7, 1)
	e = d.Lookup(7)
	if e.State != ModifiedState || e.Owner != 1 || e.Sharers != 0b10 {
		t.Errorf("owner entry = %+v", e)
	}
	d.Clear(7)
	if d.Len() != 0 {
		t.Error("Clear failed")
	}
}

func TestLocalLoadMissThenHits(t *testing.T) {
	p := testProtocol(2)
	a := addrAt(0, 0x100)
	r := p.Access(0, 0, a, false)
	if r.HitLevel != 0 || r.Remote || !r.MemoryAccess {
		t.Errorf("first access = %+v, want local memory miss", r)
	}
	if r.Done < 150 {
		t.Errorf("miss latency %d too small for SDRAM access", r.Done)
	}
	r = p.Access(r.Done, 0, a, false)
	if r.HitLevel != 1 {
		t.Errorf("second access = %+v, want L1 hit", r)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRemoteLoadCostsMoreThanLocal(t *testing.T) {
	p := testProtocol(4)
	local := p.Access(0, 0, addrAt(0, 0x40), false)
	remote := p.Access(0, 0, addrAt(3, 0x40), false)
	if !remote.Remote {
		t.Fatal("access to node 3's home must be remote")
	}
	if remote.Done-0 <= local.Done-0 {
		t.Errorf("remote latency (%d) must exceed local (%d)", remote.Done, local.Done)
	}
}

func TestReadSharingThenWriteInvalidates(t *testing.T) {
	p := testProtocol(4)
	a := addrAt(1, 0x200)
	line := a / 32
	// Procs 0, 2, 3 read the line.
	var tNow uint64
	for _, q := range []int{0, 2, 3} {
		r := p.Access(tNow, q, a, false)
		tNow = r.Done
	}
	e := p.Directory(1).Lookup(line)
	if e.State != SharedState || e.Sharers != 0b1101 {
		t.Fatalf("directory = %+v, want shared by {0,2,3}", e)
	}
	// Proc 0 writes: sharers 2 and 3 must be invalidated.
	r := p.Access(tNow, 0, a, true)
	if r.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", r.Invalidations)
	}
	e = p.Directory(1).Lookup(line)
	if e.State != ModifiedState || e.Owner != 0 {
		t.Errorf("directory after write = %+v", e)
	}
	for _, q := range []int{2, 3} {
		if hit, _ := p.CacheL2(q).Probe(a); hit {
			t.Errorf("proc %d still caches an invalidated line", q)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDirtyForwardOnLoad(t *testing.T) {
	p := testProtocol(4)
	a := addrAt(2, 0x300)
	line := a / 32
	// Proc 3 writes (becomes owner).
	r := p.Access(0, 3, a, true)
	if p.Directory(2).Lookup(line).State != ModifiedState {
		t.Fatal("setup: line must be modified at proc 3")
	}
	// Proc 0 loads: directory forwards to owner, both end shared.
	r2 := p.Access(r.Done, 0, a, false)
	if !r2.Remote {
		t.Error("forwarded load must be remote")
	}
	e := p.Directory(2).Lookup(line)
	if e.State != SharedState || e.Sharers != 0b1001 {
		t.Errorf("directory = %+v, want shared by {0,3}", e)
	}
	if _, st := p.CacheL2(3).Probe(a); st != cache.Shared {
		t.Errorf("old owner state = %v, want S", st)
	}
	if p.Stats().Forwards != 1 {
		t.Errorf("forwards = %d, want 1", p.Stats().Forwards)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDirtyForwardOnStore(t *testing.T) {
	p := testProtocol(4)
	a := addrAt(1, 0x500)
	line := a / 32
	p.Access(0, 2, a, true) // proc 2 owns
	r := p.Access(1000, 0, a, true)
	e := p.Directory(1).Lookup(line)
	if e.State != ModifiedState || e.Owner != 0 {
		t.Errorf("directory = %+v, want owned by 0", e)
	}
	if hit, _ := p.CacheL2(2).Probe(a); hit {
		t.Error("previous owner must be invalidated")
	}
	if !r.Remote {
		t.Error("ownership transfer must be remote")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestUpgradeFromShared(t *testing.T) {
	p := testProtocol(2)
	a := addrAt(0, 0x600)
	r := p.Access(0, 0, a, false) // shared
	r2 := p.Access(r.Done, 0, a, true)
	if r2.HitLevel != 2 {
		t.Errorf("upgrade should be an L2 hit path, got %+v", r2)
	}
	if _, st := p.CacheL2(0).Probe(a); st != cache.Modified {
		t.Errorf("state after upgrade = %v, want M", st)
	}
	// Subsequent store is a pure L1 hit.
	r3 := p.Access(r2.Done, 0, a, true)
	if r3.HitLevel != 1 || r3.Done != r2.Done+1 {
		t.Errorf("store hit = %+v", r3)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	p := testProtocol(2)
	// Fill one L2 set (2 ways) with modified lines homed at node 0, then
	// force an eviction with a third conflicting line.
	// L2: 1024B, 2 ways, 32B lines -> 16 sets. Same set: line numbers
	// congruent mod 16.
	base := addrAt(0, 0)
	a1 := base + 0*16*32
	a2 := base + 1*16*32
	a3 := base + 2*16*32
	tNow := uint64(0)
	for _, a := range []uint64{a1, a2} {
		r := p.Access(tNow, 0, a, true)
		tNow = r.Done
	}
	r := p.Access(tNow, 0, a3, true)
	if p.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", p.Stats().Writebacks)
	}
	// The evicted line must be uncached in the directory again.
	if e := p.Directory(0).Lookup(a1 / 32); e.State != Uncached {
		t.Errorf("evicted line directory state = %v, want U", e.State)
	}
	_ = r
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCleanEvictionSendsHint(t *testing.T) {
	p := testProtocol(2)
	a1 := addrAt(0, 0)
	a2 := addrAt(0, 1*16*32)
	a3 := addrAt(0, 2*16*32)
	tNow := uint64(0)
	for _, a := range []uint64{a1, a2, a3} { // third read evicts first
		r := p.Access(tNow, 0, a, false)
		tNow = r.Done
	}
	if e := p.Directory(0).Lookup(a1 / 32); e.State != Uncached {
		t.Errorf("hinted line = %v, want U (sharer set pruned)", e.State)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNewValidation(t *testing.T) {
	l1 := cache.Config{SizeBytes: 256, Ways: 1, LineBytes: 32, HitCycles: 1}
	l2 := cache.Config{SizeBytes: 1024, Ways: 2, LineBytes: 32, HitCycles: 12}
	l2bad := l2
	l2bad.LineBytes = 64
	l2bad.SizeBytes = 2048
	net2 := network.New(2, network.DefaultConfig())
	home := NewHomeMap(64, 1) // every line homed at node 0
	ok := Params{N: 2, L1: l1, L2: l2, Mem: memory.DefaultConfig(), Net: net2, Costs: DefaultCosts(), Home: home}
	cases := []func(p *Params){
		func(p *Params) { p.N = 0 },
		func(p *Params) { p.N = 65 },
		func(p *Params) { p.N = 4 },
		func(p *Params) { p.L2 = l2bad },
	}
	for i, mutate := range cases {
		p := ok
		mutate(&p)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			NewDirectory(p)
		}()
	}
}

// Property: after any random access sequence the global MSI invariants
// hold: at most one modified copy, sharer sets cover cached copies.
func TestProtocolInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		p := testProtocol(4)
		tNow := uint64(0)
		for _, o := range ops {
			proc := int(o & 3)
			home := int(o >> 2 & 3)
			off := uint64(o>>4&15) * 32
			write := o&0x8000 != 0
			r := p.Access(tNow, proc, addrAt(home, off), write)
			if r.Done < tNow {
				return false
			}
			tNow = r.Done
		}
		return p.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the protocol is deterministic — identical access sequences
// produce identical completion times and statistics.
func TestProtocolDeterministicProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		run := func() (uint64, Stats) {
			p := testProtocol(4)
			tNow := uint64(0)
			for _, o := range ops {
				r := p.Access(tNow, int(o&3), addrAt(int(o>>2&3), uint64(o>>4&31)*32), o&0x8000 != 0)
				tNow = r.Done
			}
			return tNow, p.Stats()
		}
		t1, s1 := run()
		t2, s2 := run()
		return t1 == t2 && s1 == s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
