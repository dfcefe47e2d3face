package vm

import (
	"errors"
	"math/bits"
	"testing"
	"testing/quick"
)

func twoZone(boPages, coPages int) *Space {
	return NewSpace(DefaultPageSize, []ZoneConfig{
		{Name: "BO", CapacityPages: boPages},
		{Name: "CO", CapacityPages: coPages},
	})
}

func TestNewSpacePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"non-pow2 page", func() { NewSpace(1000, []ZoneConfig{{Name: "x", CapacityPages: 1}}) }},
		{"zero page", func() { NewSpace(0, []ZoneConfig{{Name: "x", CapacityPages: 1}}) }},
		{"no zones", func() { NewSpace(4096, nil) }},
		{"too many zones", func() { NewSpace(4096, make([]ZoneConfig, MaxZones+1)) }},
		{"negative capacity", func() { NewSpace(4096, []ZoneConfig{{Name: "x", CapacityPages: -1}}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestMapAndTranslate(t *testing.T) {
	s := twoZone(10, 10)
	if err := s.MapPage(0, ZoneBO); err != nil {
		t.Fatal(err)
	}
	if err := s.MapPage(1, ZoneCO); err != nil {
		t.Fatal(err)
	}
	pa0, ok := s.Translate(100)
	if !ok {
		t.Fatal("page 0 unmapped")
	}
	if ZoneOfPA(pa0) != ZoneBO {
		t.Fatalf("page 0 in zone %d, want BO", ZoneOfPA(pa0))
	}
	if pa0&(DefaultPageSize-1) != 100 {
		t.Fatalf("offset not preserved: pa=%#x", pa0)
	}
	pa1, ok := s.Translate(DefaultPageSize + 5)
	if !ok {
		t.Fatal("page 1 unmapped")
	}
	if ZoneOfPA(pa1) != ZoneCO {
		t.Fatalf("page 1 in zone %d, want CO", ZoneOfPA(pa1))
	}
	if _, ok := s.Translate(10 * DefaultPageSize); ok {
		t.Fatal("unmapped address translated")
	}
}

func TestZoneFull(t *testing.T) {
	s := twoZone(2, Unlimited)
	if err := s.MapPage(0, ZoneBO); err != nil {
		t.Fatal(err)
	}
	if err := s.MapPage(1, ZoneBO); err != nil {
		t.Fatal(err)
	}
	err := s.MapPage(2, ZoneBO)
	if !errors.Is(err, ErrZoneFull) {
		t.Fatalf("third map into 2-page zone = %v, want ErrZoneFull", err)
	}
	// CO is unlimited; spilling there must work.
	if err := s.MapPage(2, ZoneCO); err != nil {
		t.Fatal(err)
	}
	if s.ZoneFree(ZoneCO) != Unlimited {
		t.Fatal("unlimited zone reported finite free space")
	}
}

// A placer falls back past a full zone on every first touch once it fills,
// so a failed MapPage or Remap must not allocate.
func TestZoneFullAllocFree(t *testing.T) {
	s := twoZone(2, 1)
	for vp := uint64(0); vp < 2; vp++ {
		if err := s.MapPage(vp, ZoneBO); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.MapPage(2, ZoneCO); err != nil {
		t.Fatal(err)
	}
	var mapErr, remapErr error
	allocs := testing.AllocsPerRun(100, func() {
		mapErr = s.MapPage(3, ZoneBO)
		_, _, remapErr = s.Remap(0, ZoneCO)
	})
	if allocs != 0 {
		t.Fatalf("failed placement into a full zone: %v allocs/run, want 0", allocs)
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{mapErr, "vm: zone full: BO (2 pages)"},
		{remapErr, "vm: zone full: CO (1 pages)"},
	} {
		if !errors.Is(c.err, ErrZoneFull) || c.err.Error() != c.want {
			t.Fatalf("err = %v, want %q wrapping ErrZoneFull", c.err, c.want)
		}
	}
}

func TestDoubleMap(t *testing.T) {
	s := twoZone(10, 10)
	if err := s.MapPage(3, ZoneBO); err != nil {
		t.Fatal(err)
	}
	if err := s.MapPage(3, ZoneCO); !errors.Is(err, ErrMapped) {
		t.Fatalf("double map = %v, want ErrMapped", err)
	}
}

func TestMapBadZone(t *testing.T) {
	s := twoZone(10, 10)
	if err := s.MapPage(0, ZoneID(5)); err == nil {
		t.Fatal("map into nonexistent zone succeeded")
	}
}

func TestUsageAccounting(t *testing.T) {
	s := twoZone(5, 5)
	for i := uint64(0); i < 3; i++ {
		if err := s.MapPage(i, ZoneBO); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ZoneUsed(ZoneBO); got != 3 {
		t.Fatalf("ZoneUsed(BO) = %d, want 3", got)
	}
	if got := s.ZoneFree(ZoneBO); got != 2 {
		t.Fatalf("ZoneFree(BO) = %d, want 2", got)
	}
	if got := s.MappedPages(); got != 3 {
		t.Fatalf("MappedPages = %d, want 3", got)
	}
	if got := s.ZoneUsed(ZoneCO); got != 0 {
		t.Fatalf("ZoneUsed(CO) = %d, want 0", got)
	}
}

func TestPageZone(t *testing.T) {
	s := twoZone(5, 5)
	s.MapPage(7, ZoneCO)
	z, ok := s.PageZone(7)
	if !ok || z != ZoneCO {
		t.Fatalf("PageZone(7) = (%d,%v), want (CO,true)", z, ok)
	}
	if _, ok := s.PageZone(8); ok {
		t.Fatal("unmapped PageZone ok")
	}
	if _, ok := s.PageZone(1 << 30); ok {
		t.Fatal("out-of-range PageZone ok")
	}
}

func TestDistinctPhysicalPages(t *testing.T) {
	s := twoZone(100, 100)
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 100; i++ {
		z := ZoneBO
		if i%3 == 0 {
			z = ZoneCO
		}
		if err := s.MapPage(i, z); err != nil {
			t.Fatal(err)
		}
		pa, _ := s.Translate(i * DefaultPageSize)
		if seen[pa] {
			t.Fatalf("physical page %#x allocated twice", pa)
		}
		seen[pa] = true
	}
}

func TestPagesFor(t *testing.T) {
	cases := []struct {
		bytes uint64
		want  int
	}{
		{0, 0}, {1, 1}, {4096, 1}, {4097, 2}, {8192, 2}, {12288, 3},
	}
	for _, tc := range cases {
		if got := PagesFor(tc.bytes, 4096); got != tc.want {
			t.Errorf("PagesFor(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}

func TestZoneNames(t *testing.T) {
	s := twoZone(1, 1)
	if s.ZoneName(ZoneBO) != "BO" || s.ZoneName(ZoneCO) != "CO" {
		t.Fatalf("zone names = %q, %q", s.ZoneName(ZoneBO), s.ZoneName(ZoneCO))
	}
	if s.Zones() != 2 {
		t.Fatalf("Zones() = %d, want 2", s.Zones())
	}
	if s.ZoneCapacity(ZoneBO) != 1 {
		t.Fatalf("ZoneCapacity(BO) = %d, want 1", s.ZoneCapacity(ZoneBO))
	}
}

// Property: translation round-trips — for any mapped page, ZoneOfPA of the
// translated address equals the zone it was mapped to, and offsets are
// preserved for any offset within the page.
func TestPropertyTranslateRoundTrip(t *testing.T) {
	f := func(vpageRaw uint16, off uint16, zRaw bool) bool {
		s := twoZone(Unlimited, Unlimited)
		vpage := uint64(vpageRaw % 4096)
		z := ZoneBO
		if zRaw {
			z = ZoneCO
		}
		if err := s.MapPage(vpage, z); err != nil {
			return false
		}
		va := vpage*DefaultPageSize + uint64(off)%DefaultPageSize
		pa, ok := s.Translate(va)
		if !ok {
			return false
		}
		return ZoneOfPA(pa) == z && pa&(DefaultPageSize-1) == va&(DefaultPageSize-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: used counts always equal successfully mapped pages per zone.
func TestPropertyUsageConservation(t *testing.T) {
	f := func(choices []bool) bool {
		s := twoZone(len(choices), len(choices))
		want := map[ZoneID]int{}
		for i, c := range choices {
			z := ZoneBO
			if c {
				z = ZoneCO
			}
			if err := s.MapPage(uint64(i), z); err == nil {
				want[z]++
			}
		}
		return s.ZoneUsed(ZoneBO) == want[ZoneBO] && s.ZoneUsed(ZoneCO) == want[ZoneCO]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTranslate(b *testing.B) {
	s := twoZone(Unlimited, Unlimited)
	for i := uint64(0); i < 1024; i++ {
		s.MapPage(i, ZoneID(i%2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Translate(uint64(i%1024) * DefaultPageSize)
	}
}

// TestTranslateCached: hits agree with Translate, and Remap/Unmap
// invalidate outstanding caches through the generation stamp.
func TestTranslateCached(t *testing.T) {
	s := NewSpace(DefaultPageSize, []ZoneConfig{
		{Name: "BO", CapacityPages: 8}, {Name: "CO", CapacityPages: 8},
	})
	if err := s.MapPage(3, ZoneBO); err != nil {
		t.Fatal(err)
	}
	var tc TransCache
	va := uint64(3*DefaultPageSize + 17)
	pa, ok := s.TranslateCached(&tc, va)
	want, _ := s.Translate(va)
	if !ok || pa != want {
		t.Fatalf("TranslateCached = %#x,%v; Translate = %#x", pa, ok, want)
	}
	// Cached hit on the same page, different offset.
	pa2, ok := s.TranslateCached(&tc, va+1)
	if !ok || pa2 != want+1 {
		t.Fatalf("cached hit = %#x,%v, want %#x", pa2, ok, want+1)
	}
	// Remap must invalidate: the cached PA is stale afterwards.
	if _, _, err := s.Remap(3, ZoneCO); err != nil {
		t.Fatal(err)
	}
	pa3, ok := s.TranslateCached(&tc, va)
	want3, _ := s.Translate(va)
	if !ok || pa3 != want3 {
		t.Fatalf("post-remap TranslateCached = %#x,%v, want %#x", pa3, ok, want3)
	}
	if ZoneOfPA(pa3) != ZoneCO {
		t.Fatalf("post-remap zone = %d, want ZoneCO", ZoneOfPA(pa3))
	}
	// Unmap must invalidate too: the lookup now misses.
	if err := s.Unmap(3); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.TranslateCached(&tc, va); ok {
		t.Fatal("TranslateCached hit an unmapped page")
	}
	// Unmapped lookups must not poison the cache.
	if _, ok := s.TranslateCached(&tc, 100*DefaultPageSize); ok {
		t.Fatal("TranslateCached hit a never-mapped page")
	}
}

// TestGrowAmortised: first-touching N rising pages, directly or through
// deferred mapping with a FlushPending per page (one new page per window
// barrier), allocates O(log N) times, and the table's visible extent is
// exactly the mapped span: pages at and beyond TableSpan stay unmapped
// even where the backing arrays have spare capacity.
func TestGrowAmortised(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		for _, n := range []int{1 << 10, 1 << 14} {
			var s *Space
			allocs := testing.AllocsPerRun(1, func() {
				s = twoZone(Unlimited, Unlimited)
				s.SetDeferred(deferred)
				for v := 0; v < n; v++ {
					if err := s.MapPage(uint64(v), ZoneID(v%2)); err != nil {
						t.Fatal(err)
					}
					s.FlushPending()
				}
			})
			if limit := 8 * float64(bits.Len(uint(n))); allocs > limit {
				t.Errorf("deferred=%v: mapping %d pages made %.0f allocations, want <= %.0f", deferred, n, allocs, limit)
			}
			if got := s.TableSpan(); got != uint64(n) {
				t.Fatalf("deferred=%v: TableSpan = %d, want %d", deferred, got, n)
			}
			last := uint64(n-1) * DefaultPageSize
			if pa, ok := s.Translate(last + 5); !ok || ZoneOfPA(pa) != ZoneID((n-1)%2) || pa&(DefaultPageSize-1) != 5 {
				t.Fatalf("deferred=%v: Translate(last page) = %#x, %v", deferred, pa, ok)
			}
			beyond := []uint64{uint64(n), uint64(cap(s.table)), 4 * uint64(n)}
			if c := uint64(cap(s.table)); c > uint64(n) {
				beyond = append(beyond, c-1) // spare capacity, not span
			}
			for _, v := range beyond {
				if _, ok := s.Translate(v * DefaultPageSize); ok {
					t.Fatalf("deferred=%v: vpage %d beyond span %d translates", deferred, v, n)
				}
				if s.MappedOrPending(v) {
					t.Fatalf("deferred=%v: vpage %d beyond span %d reported mapped", deferred, v, n)
				}
				if _, ok := s.PageZone(v); ok {
					t.Fatalf("deferred=%v: vpage %d beyond span %d has a zone", deferred, v, n)
				}
			}
			// A page mapped past the span extends it; the gap stays unmapped.
			if err := s.MapPage(uint64(n)+10, ZoneBO); err != nil {
				t.Fatal(err)
			}
			s.FlushPending()
			if got := s.TableSpan(); got != uint64(n)+11 {
				t.Fatalf("deferred=%v: TableSpan = %d after a sparse map, want %d", deferred, got, n+11)
			}
			if s.MappedOrPending(uint64(n)+9) || !s.MappedOrPending(uint64(n)+10) {
				t.Fatalf("deferred=%v: gap page mapped or sparse page unmapped", deferred)
			}
			if s.MappedPages() != n+1 {
				t.Fatalf("deferred=%v: MappedPages = %d, want %d", deferred, s.MappedPages(), n+1)
			}
		}
	}
}
