package predict

import (
	"errors"
	"math"
	"testing"
)

// diurnalTrace builds a repeating day/night trace with a weekly trend.
func diurnalTrace(hours int) []float64 {
	out := make([]float64, hours)
	for h := 0; h < hours; h++ {
		hourOfDay := h % 24
		if hourOfDay >= 6 && hourOfDay < 18 {
			out[h] = 100 * math.Sin(math.Pi*float64(hourOfDay-6)/12)
		}
	}
	return out
}

func TestPerfectPredictor(t *testing.T) {
	trace := diurnalTrace(24 * 14)
	p := &Perfect{Trace: trace}
	if p.Name() != "perfect" {
		t.Errorf("Name = %s", p.Name())
	}
	got, err := p.Predict(100, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 48 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != trace[100+i] {
			t.Fatalf("perfect prediction differs at %d", i)
		}
	}
	// Wrap-around at the end of the trace.
	got, err = p.Predict(len(trace)-2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got[4] != trace[3] {
		t.Error("wrap-around prediction wrong")
	}
}

func TestArgumentValidation(t *testing.T) {
	trace := diurnalTrace(48)
	for _, p := range []Predictor{&Perfect{Trace: trace}, &Persistence{Trace: trace}, &Diurnal{Trace: trace}} {
		if _, err := p.Predict(0, 0); !errors.Is(err, ErrBadHorizon) {
			t.Errorf("%s: want ErrBadHorizon, got %v", p.Name(), err)
		}
		if _, err := p.Predict(-1, 5); err == nil {
			t.Errorf("%s: negative start should error", p.Name())
		}
		if _, err := p.Predict(len(trace), 5); err == nil {
			t.Errorf("%s: out-of-range start should error", p.Name())
		}
	}
}

func TestPersistencePredictsYesterday(t *testing.T) {
	trace := diurnalTrace(24 * 10)
	// Introduce a one-off anomaly yesterday so persistence visibly copies it.
	trace[24*5+12] = 999
	p := &Persistence{Trace: trace}
	got, err := p.Predict(24*6, 24)
	if err != nil {
		t.Fatal(err)
	}
	if got[12] != 999 {
		t.Errorf("persistence should copy yesterday's value, got %v", got[12])
	}
	if p.Name() != "persistence" {
		t.Errorf("Name = %s", p.Name())
	}
}

func TestDiurnalAveragesPastDays(t *testing.T) {
	trace := diurnalTrace(24 * 10)
	trace[24*5+12] = 999 // a single outlier should be diluted by averaging
	d := &Diurnal{Trace: trace, Days: 5}
	got, err := d.Predict(24*7, 24)
	if err != nil {
		t.Fatal(err)
	}
	normal := diurnalTrace(24)[12]
	if got[12] <= normal || got[12] >= 999 {
		t.Errorf("diurnal average %v should lie between the normal value %v and the outlier", got[12], normal)
	}
	if d.Name() != "diurnal" {
		t.Errorf("Name = %s", d.Name())
	}
	// Default day count kicks in when Days is zero.
	d2 := &Diurnal{Trace: trace}
	if _, err := d2.Predict(24*8, 12); err != nil {
		t.Errorf("default day count failed: %v", err)
	}
}

func TestMeanAbsoluteError(t *testing.T) {
	trace := diurnalTrace(24 * 30)
	perfect := &Perfect{Trace: trace}
	persistence := &Persistence{Trace: trace}

	perfErr, err := meanAbsoluteError(perfect, trace, 24*7, 24*7, 48)
	if err != nil {
		t.Fatal(err)
	}
	if perfErr != 0 {
		t.Errorf("perfect predictor MAE = %v, want 0", perfErr)
	}
	persErr, err := meanAbsoluteError(persistence, trace, 24*7, 24*7, 48)
	if err != nil {
		t.Fatal(err)
	}
	// On a perfectly repeating diurnal trace persistence is also perfect.
	if persErr > 1e-9 {
		t.Errorf("persistence MAE on a repeating trace = %v, want ~0", persErr)
	}
	// On a noisy trace persistence must do worse than the oracle.
	noisy := make([]float64, len(trace))
	copy(noisy, trace)
	for i := range noisy {
		if i%7 == 0 {
			noisy[i] += float64(i % 50)
		}
	}
	noisyPers, err := meanAbsoluteError(&Persistence{Trace: noisy}, noisy, 24*7, 24*7, 48)
	if err != nil {
		t.Fatal(err)
	}
	if noisyPers <= 0 {
		t.Error("persistence on a noisy trace should have positive error")
	}
	if _, err := meanAbsoluteError(perfect, trace, 0, 0, 24); !errors.Is(err, ErrBadHorizon) {
		t.Errorf("want ErrBadHorizon, got %v", err)
	}
}

// meanAbsoluteError compares a predictor against the true trace over a window
// of `hours` starting at `from`, predicting `horizon` hours at a time.
func meanAbsoluteError(p Predictor, truth []float64, from, hours, horizon int) (float64, error) {
	if hours <= 0 {
		return 0, ErrBadHorizon
	}
	totalErr := 0.0
	n := 0
	for h := 0; h < hours; h += horizon {
		pred, err := p.Predict((from+h)%len(truth), horizon)
		if err != nil {
			return 0, err
		}
		for i, v := range pred {
			actual := truth[(from+h+i)%len(truth)]
			diff := v - actual
			if diff < 0 {
				diff = -diff
			}
			totalErr += diff
			n++
		}
	}
	return totalErr / float64(n), nil
}
