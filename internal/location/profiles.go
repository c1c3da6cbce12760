package location

import (
	"sync"

	"greencloud/internal/series"
)

// Profiles is a dense, read-only view of the catalog's per-epoch site
// profiles: the α (solar), β (wind) and PUE series of every site, each
// stored as one epoch-major series.Block (sites × epochs, contiguous).
// The Block layout keeps the evaluator's inner loops cache-friendly (no
// per-site pointer chasing) and is the shape the series kernels stream
// through.
//
// Profiles is built once per catalog (lazily, on first use) and shared by
// all readers; per the series.Block read-only contract, it must not be
// mutated after construction.
type Profiles struct {
	rows  map[int]int // site ID → row index
	alpha series.Block
	beta  series.Block
	pue   series.Block
}

// Row returns the matrix row for the given site ID.
func (p *Profiles) Row(siteID int) (int, bool) {
	r, ok := p.rows[siteID]
	return r, ok
}

// Alpha returns the solar production-factor series of the given row.  The
// returned slice aliases the shared Block; callers must not modify it.
func (p *Profiles) Alpha(row int) []float64 {
	return p.alpha.Row(row)
}

// Beta returns the wind production-factor series of the given row.
func (p *Profiles) Beta(row int) []float64 {
	return p.beta.Row(row)
}

// PUE returns the PUE series of the given row.
func (p *Profiles) PUE(row int) []float64 {
	return p.pue.Row(row)
}

// profilesOnce is attached to the catalog for lazy one-time construction.
type profilesOnce struct {
	once sync.Once
	p    *Profiles
}

// Profiles returns the catalog's dense profile matrices, building them on
// first use.  Subsequent calls return the same shared instance, so the cost
// of densifying the catalog is paid once no matter how many evaluators are
// created on top of it.
func (c *Catalog) Profiles() *Profiles {
	c.profiles.once.Do(func() {
		epochs := c.grid.Len()
		n := len(c.sites)
		p := &Profiles{rows: make(map[int]int, n)}
		p.alpha.Reshape(n, epochs)
		p.beta.Reshape(n, epochs)
		p.pue.Reshape(n, epochs)
		for row, s := range c.sites {
			p.rows[s.ID] = row
			copy(p.alpha.Row(row), s.Alpha)
			copy(p.beta.Row(row), s.Beta)
			copy(p.pue.Row(row), s.PUE)
		}
		c.profiles.p = p
	})
	return c.profiles.p
}
