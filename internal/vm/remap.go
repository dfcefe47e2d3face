package vm

import "fmt"

// Remap support: the paper studies initial placement only (§5.5 defers
// migration because software page moves cost microseconds and several GB/s
// of bandwidth), but explicitly calls dynamic migration out as future
// work. The migration engine (package migrate) needs to move an existing
// mapping between zones, which requires freeing physical pages; the bump
// allocator therefore keeps per-zone free lists that Remap feeds and
// MapPage drains.

// freePages tracks reusable physical page addresses per zone.
type freeList struct {
	pas []uint64
}

func (f *freeList) push(pa uint64) { f.pas = append(f.pas, pa) }

func (f *freeList) pop() (uint64, bool) {
	if len(f.pas) == 0 {
		return 0, false
	}
	pa := f.pas[len(f.pas)-1]
	f.pas = f.pas[:len(f.pas)-1]
	return pa, true
}

// Unmap releases the mapping for vpage, returning its physical page to the
// owning zone's free list. The caller is responsible for invalidating any
// cached lines of the old physical page.
func (s *Space) Unmap(vpage uint64) error {
	s.FlushPending() // callers run single-laned (migration forces one lane)
	if vpage >= uint64(len(s.mapped)) || !s.mapped[vpage] {
		return fmt.Errorf("vm: Unmap(%d): not mapped", vpage)
	}
	z := s.zoneOf[vpage]
	s.free[z].push(s.table[vpage])
	s.mapped[vpage] = false
	s.used[z]--
	// Invalidate every outstanding TransCache. MapPage needs no bump: it
	// only adds mappings, and caches never hold unmapped pages.
	s.gen++
	return nil
}

// Remap moves vpage's backing store to zone z, freeing the old physical
// page. It returns the old and new physical page addresses so the caller
// can model the copy traffic and invalidate stale cache lines. Remap fails
// with ErrZoneFull when z has no free pages (callers typically Unmap a
// victim first to make room).
func (s *Space) Remap(vpage uint64, z ZoneID) (oldPA, newPA uint64, err error) {
	if int(z) >= len(s.zones) {
		return 0, 0, fmt.Errorf("vm: Remap: zone %d out of range", z)
	}
	s.FlushPending() // callers run single-laned (migration forces one lane)
	if vpage >= uint64(len(s.mapped)) || !s.mapped[vpage] {
		return 0, 0, fmt.Errorf("vm: Remap(%d): not mapped", vpage)
	}
	cur := s.zoneOf[vpage]
	if cur == z {
		return s.table[vpage], s.table[vpage], nil
	}
	oldPA = s.table[vpage]
	newPA, err = s.allocPhys(z)
	if err != nil {
		return 0, 0, err
	}
	s.free[cur].push(oldPA)
	s.used[cur]--
	s.table[vpage] = newPA
	s.zoneOf[vpage] = z
	s.gen++ // invalidate every outstanding TransCache
	return oldPA, newPA, nil
}

// allocPhys grabs a physical page in zone z, preferring the free list.
func (s *Space) allocPhys(z ZoneID) (uint64, error) {
	if pa, ok := s.free[z].pop(); ok {
		s.used[z]++
		return pa, nil
	}
	zs := &s.zones[z]
	if zs.cfg.CapacityPages != Unlimited && int(zs.next) >= zs.cfg.CapacityPages {
		return 0, zs.full
	}
	pa := uint64(z)<<zoneShift | zs.next*s.pageSize
	zs.next++
	s.used[z]++
	return pa, nil
}
