// Package predict provides the green-energy predictors GreenNebula's
// scheduler consults when planning the next 48 hours of load placement.
//
// The paper's validation assumes perfectly accurate predictions (and cites
// prior work showing solar/wind production can be predicted well); this
// package provides that perfect oracle plus two simple real predictors
// (persistence and a diurnal average) so the emulation can also quantify how
// much prediction error costs.
package predict

import (
	"errors"
	"fmt"
)

// Predictor forecasts green power production (kW) for the next `horizon`
// hours starting at hour `from` of an hourly year trace.
type Predictor interface {
	// Predict returns `horizon` hourly forecasts starting at `from`.
	Predict(from, horizon int) ([]float64, error)
	// PredictInto fills dst with len(dst) hourly forecasts starting at
	// `from` without allocating — the emulation hot-loop entry point.
	PredictInto(dst []float64, from int) error
	// Name identifies the predictor in reports.
	Name() string
}

// ErrBadHorizon reports an invalid prediction request.
var ErrBadHorizon = errors.New("predict: horizon must be positive")

func checkArgs(traceLen, from, horizon int) error {
	if horizon <= 0 {
		return ErrBadHorizon
	}
	if from < 0 || from >= traceLen {
		return fmt.Errorf("predict: start hour %d outside the trace", from)
	}
	return nil
}

// Perfect returns the actual future values (the paper's assumption).
type Perfect struct {
	Trace []float64
}

// Name implements Predictor.
func (p *Perfect) Name() string { return "perfect" }

// Predict implements Predictor.
func (p *Perfect) Predict(from, horizon int) ([]float64, error) {
	if horizon <= 0 {
		return nil, ErrBadHorizon
	}
	out := make([]float64, horizon)
	if err := p.PredictInto(out, from); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictInto implements Predictor.
func (p *Perfect) PredictInto(dst []float64, from int) error {
	if err := checkArgs(len(p.Trace), from, len(dst)); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = p.Trace[(from+i)%len(p.Trace)]
	}
	return nil
}

// Persistence predicts that the next hours will look exactly like the most
// recent ones (same hour yesterday).
type Persistence struct {
	Trace []float64
}

// Name implements Predictor.
func (p *Persistence) Name() string { return "persistence" }

// Predict implements Predictor.
func (p *Persistence) Predict(from, horizon int) ([]float64, error) {
	if horizon <= 0 {
		return nil, ErrBadHorizon
	}
	out := make([]float64, horizon)
	if err := p.PredictInto(out, from); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictInto implements Predictor.
func (p *Persistence) PredictInto(dst []float64, from int) error {
	if err := checkArgs(len(p.Trace), from, len(dst)); err != nil {
		return err
	}
	for i := range dst {
		idx := from + i - 24
		for idx < 0 {
			idx += len(p.Trace)
		}
		dst[i] = p.Trace[idx%len(p.Trace)]
	}
	return nil
}

// Diurnal predicts each future hour as the average of the same hour of day
// over the past diurnalDays days.
type Diurnal struct {
	Trace []float64
}

// diurnalDays is the averaging window of Diurnal: one week.
const diurnalDays = 7

// Name implements Predictor.
func (d *Diurnal) Name() string { return "diurnal" }

// Predict implements Predictor.
func (d *Diurnal) Predict(from, horizon int) ([]float64, error) {
	if horizon <= 0 {
		return nil, ErrBadHorizon
	}
	out := make([]float64, horizon)
	if err := d.PredictInto(out, from); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictInto implements Predictor.
func (d *Diurnal) PredictInto(dst []float64, from int) error {
	if err := checkArgs(len(d.Trace), from, len(dst)); err != nil {
		return err
	}
	for i := range dst {
		target := from + i
		sum := 0.0
		for day := 1; day <= diurnalDays; day++ {
			idx := target - day*24
			for idx < 0 {
				idx += len(d.Trace)
			}
			sum += d.Trace[idx%len(d.Trace)]
		}
		dst[i] = sum / diurnalDays
	}
	return nil
}
