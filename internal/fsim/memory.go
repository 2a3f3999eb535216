package fsim

// pageWords is the number of 8-byte words per page (4 KiB pages).
const pageWords = 512

// Memory is a sparse, page-granular 64-bit word-addressable memory covering
// the ISA's 40-bit address space. Unwritten locations read as zero, which
// keeps wrong-path execution with garbage addresses well defined.
//
// A memory may map pages it does not own: the read-only initial image a
// Trace shares with every machine replaying it (see Capture). Write copies
// such a page into one of its own before the first store to it, so no
// memory ever sees another's stores.
type Memory struct {
	pages map[uint64]page
}

// page is one page-directory entry: the page's words and the memory that
// owns them. Only the owner stores into a page in place.
type page struct {
	words *[pageWords]uint64
	owner *Memory
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]page)}
}

// Read returns the 8-byte word at addr (8-byte aligned by the ISA's
// effective-address computation).
func (m *Memory) Read(addr uint64) uint64 {
	pg := m.pages[addr/8/pageWords].words
	if pg == nil {
		return 0
	}
	return pg[addr/8%pageWords]
}

// Write stores an 8-byte word at addr, first copying the page into one of
// m's own when it is absent or shared.
func (m *Memory) Write(addr uint64, v uint64) {
	idx := addr / 8 / pageWords
	pg := m.pages[idx]
	if pg.owner != m {
		words := new([pageWords]uint64)
		if pg.words != nil {
			*words = *pg.words
		}
		pg = page{words: words, owner: m}
		m.pages[idx] = pg
	}
	pg.words[addr/8%pageWords] = v
}

// Footprint returns the number of distinct pages touched, a cheap proxy for
// working-set size used by workload tests.
func (m *Memory) Footprint() int { return len(m.pages) }
