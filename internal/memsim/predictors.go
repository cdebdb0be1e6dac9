package memsim

// streamPrefetcher is the L2 streamer: it watches demand-miss line
// addresses and, once it sees maxStreak consecutive lines in the same
// direction, prefetches degree lines ahead. Like the hardware it
// models, it never crosses a 4 KiB page boundary — which is exactly why
// the paper's strided micro-benchmark (Listing 2) sees L2 prefetch
// requests collapse by 90%.
type streamPrefetcher struct {
	lastLine  uint64
	direction int64 // +1, −1 or 0 (no stream)
	streak    int
	degree    int // lines fetched ahead once a stream is confirmed
	linesPage uint64
	// buf backs observeMiss's return value, reused across calls: the
	// simulator consumes the prefetch list before the next miss, and a
	// confirmed stream misses once per line, so a fresh allocation here
	// would run on the hottest sequential-access path.
	buf []uint64
}

func newStreamPrefetcher(lineBytes, pageBytes, degree int) *streamPrefetcher {
	return &streamPrefetcher{
		degree:    degree,
		linesPage: uint64(pageBytes / lineBytes),
		buf:       make([]uint64, 0, degree),
	}
}

func (p *streamPrefetcher) reset() {
	p.lastLine, p.direction, p.streak = 0, 0, 0
}

// observeMiss records a demand miss and returns the line addresses to
// prefetch (possibly none). The returned slice is only valid until the
// next observeMiss call.
func (p *streamPrefetcher) observeMiss(lineAddr uint64) []uint64 {
	var dir int64
	switch {
	case lineAddr == p.lastLine+1:
		dir = 1
	case lineAddr == p.lastLine-1:
		dir = -1
	}
	if dir != 0 && dir == p.direction {
		p.streak++
	} else if dir != 0 {
		p.direction = dir
		p.streak = 1
	} else {
		p.direction = 0
		p.streak = 0
	}
	p.lastLine = lineAddr
	if p.streak < 2 {
		return nil
	}
	// Confirmed stream: fetch ahead without leaving the page.
	out := p.buf[:0]
	page := lineAddr / p.linesPage
	next := lineAddr
	for i := 0; i < p.degree; i++ {
		if p.direction > 0 {
			next++
		} else {
			if next == 0 {
				break
			}
			next--
		}
		if next/p.linesPage != page {
			break // page boundary: hardware streamers stop here
		}
		out = append(out, next)
	}
	p.buf = out
	return out
}

// branchPredictor is a table of 2-bit saturating counters indexed by a
// static branch site ID. Workloads assign one site ID per static
// branch, mirroring PC-indexed prediction.
type branchPredictor struct {
	table [4096]uint8
}

func (b *branchPredictor) reset() {
	for i := range b.table {
		b.table[i] = 1 // weakly not-taken
	}
}

// predictAndUpdate returns the prediction for the site, then trains the
// counter with the actual outcome.
func (b *branchPredictor) predictAndUpdate(site uint16, taken bool) (predictedTaken bool) {
	i := int(site) & (len(b.table) - 1)
	s := b.table[i]
	predictedTaken = s >= 2
	if taken && s < 3 {
		b.table[i] = s + 1
	} else if !taken && s > 0 {
		b.table[i] = s - 1
	}
	return predictedTaken
}
