// Package timeseries provides hourly time series over a typical
// meteorological year and utilities to aggregate them into the coarser
// "representative epoch" grids used by the placement optimizer.
//
// The paper's framework divides time into fixed slots t within a longer
// duration T (one year of hourly data).  Solving the provisioning problem
// over all 8760 hours is unnecessary for the qualitative results, so the
// optimizer works on a reduced set of representative days: each epoch of a
// representative day carries a weight equal to the number of real days it
// stands for.  This package owns both representations.
package timeseries

import (
	"errors"
	"math"
	"sort"
)

// HoursPerYear is the number of hourly slots in a typical meteorological year.
// TMY datasets use a non-leap 365-day year.
const HoursPerYear = 365 * 24

// HoursPerDay is the number of hourly slots in a day.
const HoursPerDay = 24

// Hourly is a year-long series with one sample per hour (8760 samples).
type Hourly struct {
	values []float64
}

// NewHourly returns an Hourly series initialized to zero.
func NewHourly() *Hourly {
	return &Hourly{values: make([]float64, HoursPerYear)}
}

// Generate builds an Hourly series by evaluating fn for every hour of the
// year.  fn receives the day of year (0-based, 0..364) and hour of day
// (0..23).
func Generate(fn func(day, hour int) float64) *Hourly {
	h := NewHourly()
	for day := 0; day < 365; day++ {
		for hour := 0; hour < HoursPerDay; hour++ {
			h.values[day*HoursPerDay+hour] = fn(day, hour)
		}
	}
	return h
}

// Len returns the number of samples (always HoursPerYear).
func (h *Hourly) Len() int { return len(h.values) }

// AtDayHour returns the sample for a given day of year and hour of day.
func (h *Hourly) AtDayHour(day, hour int) float64 {
	return h.values[day*HoursPerDay+hour]
}

// Set stores a sample at the given absolute hour index.
func (h *Hourly) Set(hour int, v float64) { h.values[hour] = v }

// Mean returns the arithmetic mean of the series.
func (h *Hourly) Mean() float64 {
	sum := 0.0
	for _, v := range h.values {
		sum += v
	}
	return sum / float64(len(h.values))
}

// Max returns the largest sample.
func (h *Hourly) Max() float64 {
	m := math.Inf(-1)
	for _, v := range h.values {
		if v > m {
			m = v
		}
	}
	return m
}

// Map returns a new series with fn applied to every sample.
func (h *Hourly) Map(fn func(float64) float64) *Hourly {
	out := NewHourly()
	for i, v := range h.values {
		out.values[i] = fn(v)
	}
	return out
}

// ShiftHours returns a copy of the series circularly shifted so that the
// value previously at hour i appears at hour i+k.  It converts a series
// expressed in a site's local solar time into UTC: a site k hours east of
// Greenwich experiences local noon k hours before UTC noon, so its local
// series must be shifted by −k to read it on a UTC clock.
func (h *Hourly) ShiftHours(k int) *Hourly {
	n := len(h.values)
	k = ((k % n) + n) % n
	out := NewHourly()
	for i, v := range h.values {
		out.values[(i+k)%n] = v
	}
	return out
}

// Values returns a copy of the underlying samples.
func (h *Hourly) Values() []float64 {
	out := make([]float64, len(h.values))
	copy(out, h.values)
	return out
}

// Epoch is a single representative time slot used by the optimizer.
type Epoch struct {
	// Day is the representative day index within the grid (0-based).
	Day int
	// Hour is the hour of day (0..23).
	Hour int
	// Weight is the number of real days this representative day stands
	// for.  The energy contributed by this epoch is value × Weight × 1h.
	Weight float64
}

// Grid is a reduced representation of the year: a small number of
// representative days, each covering an equal share of the 365-day year,
// sampled hourly.  Epochs are ordered chronologically (day-major,
// hour-minor), which the optimizer relies on when chaining battery levels
// and migration terms across consecutive epochs.
type Grid struct {
	days   int
	epochs []Epoch
}

// ErrInvalidGrid reports an unusable representative-day count.
var ErrInvalidGrid = errors.New("timeseries: representative day count must be between 1 and 365")

// NewGrid builds a grid with the given number of representative days spread
// evenly through the year.
func NewGrid(representativeDays int) (*Grid, error) {
	if representativeDays < 1 || representativeDays > 365 {
		return nil, ErrInvalidGrid
	}
	weight := 365.0 / float64(representativeDays)
	epochs := make([]Epoch, 0, representativeDays*HoursPerDay)
	for d := 0; d < representativeDays; d++ {
		for hr := 0; hr < HoursPerDay; hr++ {
			epochs = append(epochs, Epoch{Day: d, Hour: hr, Weight: weight})
		}
	}
	return &Grid{days: representativeDays, epochs: epochs}, nil
}

// Len returns the number of epochs (days × 24).
func (g *Grid) Len() int { return len(g.epochs) }

// Epochs returns the chronological list of epochs.  The returned slice is a
// copy.
func (g *Grid) Epochs() []Epoch {
	out := make([]Epoch, len(g.epochs))
	copy(out, g.epochs)
	return out
}

// Reduce collapses an hourly year series onto the grid.  For each epoch the
// value is the average of the corresponding hour of day over the span of
// real days that the representative day covers.  This keeps diurnal shape
// exact and smooths day-to-day weather noise, which is what the placement
// optimizer needs (the paper aggregates hourly TMY data in the same spirit).
func (g *Grid) Reduce(h *Hourly) []float64 {
	out := make([]float64, g.Len())
	chunk := 365.0 / float64(g.days)
	for i, e := range g.epochs {
		startDay := int(math.Floor(chunk * float64(e.Day)))
		endDay := int(math.Floor(chunk * float64(e.Day+1)))
		if endDay <= startDay {
			endDay = startDay + 1
		}
		if endDay > 365 {
			endDay = 365
		}
		sum := 0.0
		n := 0
		for day := startDay; day < endDay; day++ {
			sum += h.AtDayHour(day, e.Hour)
			n++
		}
		out[i] = sum / float64(n)
	}
	return out
}

// CDF returns the values sorted ascending together with cumulative
// percentages (0..100], useful for reproducing the capacity-factor and cost
// CDFs of Figs. 3 and 6.
func CDF(values []float64) (sorted []float64, percentiles []float64) {
	sorted = make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	percentiles = make([]float64, len(values))
	n := float64(len(values))
	for i := range sorted {
		percentiles[i] = 100 * float64(i+1) / n
	}
	return sorted, percentiles
}
