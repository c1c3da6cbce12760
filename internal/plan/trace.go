// Package plan is the continuous-planning service: a long-running daemon
// around the emulation runner (internal/emul) and the warm-started
// partition LP (internal/sched, internal/lp) that ingests streamed hourly
// load/weather updates, re-plans incrementally — each tick rewrites the
// RHS/bounds of the structure-cached partition LP and re-solves from the
// carried basis, so a healthy tick stream runs at zero cold fallbacks — and
// serves the current plan over a small HTTP/JSON API.
//
// See doc.go at the repository root ("# Serving") for the architecture,
// the tick journal and the warm-resume contract.
package plan

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"greencloud/internal/emul"
	"greencloud/internal/location"
	"greencloud/internal/vm"
	"greencloud/internal/wan"
)

// TraceSpec names an emulated trace reproducibly: the same spec always
// builds the same datacenters, fleet and year traces, which is what lets a
// daemon, a batch emul.Runner and a restarted daemon agree bit-for-bit.
// The zero value of every field selects a default, so the zero TraceSpec is
// the standard three-datacenter smoke trace.
type TraceSpec struct {
	// Sites is the size of the generated location catalog.
	Sites int `json:"sites,omitempty"`
	// Seed seeds the catalog generator.
	Seed int64 `json:"seed,omitempty"`
	// Datacenters is how many sites to select (best solar capacity factor,
	// spread across time zones so the sun is always up somewhere).
	Datacenters int `json:"datacenters,omitempty"`
	// VMs is the HPC fleet size.
	VMs int `json:"vms,omitempty"`
	// StartHour is the hour of the TMY year at which the trace starts.
	StartHour int `json:"start_hour,omitempty"`
	// HorizonHours is the scheduler's prediction horizon.
	HorizonHours int `json:"horizon_hours,omitempty"`
	// LPTimeoutMS bounds each tick's partition LP solve, in milliseconds
	// (a tick that overruns degrades instead of stalling the daemon).
	LPTimeoutMS int64 `json:"lp_timeout_ms,omitempty"`
}

// Trace defaults: a three-datacenter, nine-VM summer-day trace small enough
// for CI smoke runs yet busy enough to migrate every few hours.
const (
	defaultSites       = 60
	defaultSeed        = 21
	defaultDatacenters = 3
	defaultVMs         = 9
	defaultStartHour   = 24 * 172
	defaultHorizon     = 12
	defaultLPTimeoutMS = 2000
)

func (ts TraceSpec) withDefaults() TraceSpec {
	if ts.Sites <= 0 {
		ts.Sites = defaultSites
	}
	if ts.Seed == 0 {
		ts.Seed = defaultSeed
	}
	if ts.Datacenters <= 0 {
		ts.Datacenters = defaultDatacenters
	}
	if ts.VMs <= 0 {
		ts.VMs = defaultVMs
	}
	if ts.StartHour <= 0 {
		ts.StartHour = defaultStartHour
	}
	if ts.HorizonHours <= 0 {
		ts.HorizonHours = defaultHorizon
	}
	if ts.LPTimeoutMS <= 0 {
		ts.LPTimeoutMS = defaultLPTimeoutMS
	}
	return ts
}

// Digest is a stable identity for the spec (defaults applied), stored in
// the tick journal's header so a daemon never resumes state recorded under
// a different trace.
func (ts TraceSpec) Digest() string {
	ts = ts.withDefaults()
	h := fnv.New64a()
	for _, v := range []int64{int64(ts.Sites), ts.Seed, int64(ts.Datacenters),
		int64(ts.VMs), int64(ts.StartHour), int64(ts.HorizonHours), ts.LPTimeoutMS} {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("trace-%016x", h.Sum64())
}

// Build materializes the spec: the location catalog, and an emul.Config
// selecting the spec's datacenters and fleet.  Deterministic — two Builds
// of equal specs yield identical configs.
func (ts TraceSpec) Build() (emul.Config, *location.Catalog, error) {
	ts = ts.withDefaults()
	cat, err := location.Generate(location.Options{Count: ts.Sites, Seed: ts.Seed, RepresentativeDays: 1})
	if err != nil {
		return emul.Config{}, nil, err
	}
	fleet := vm.NewHPCFleet("hpc", ts.VMs)
	fleetKW := fleet.TotalPowerW() / 1000

	// Prefer high-solar sites spread across time zones so the sun is
	// always up somewhere (the paper's follow-the-renewables premise).
	solar := cat.TopBySolarCF(ts.Datacenters * 3)
	if len(solar) == 0 {
		return emul.Config{}, nil, fmt.Errorf("plan: catalog has no sites")
	}
	picked := []*location.Site{solar[0]}
	for _, cand := range solar[1:] {
		distinct := true
		for _, p := range picked {
			d := cand.UTCOffsetHours - p.UTCOffsetHours
			if d < 0 {
				d = -d
			}
			if d > 12 {
				d = 24 - d
			}
			if d < 5 {
				distinct = false
				break
			}
		}
		if distinct {
			picked = append(picked, cand)
		}
		if len(picked) == ts.Datacenters {
			break
		}
	}
	for len(picked) < ts.Datacenters && len(picked) < len(solar) {
		picked = append(picked, solar[len(picked)])
	}

	dcs := make([]emul.DatacenterConfig, 0, len(picked))
	for _, site := range picked {
		dcs = append(dcs, emul.DatacenterConfig{
			Name:       site.Name,
			Site:       site,
			CapacityKW: fleetKW,
			SolarKW:    fleetKW * 8 / site.SolarCapacityFactor * 0.25,
			WindKW:     0.2,
		})
	}
	return emul.Config{
		Datacenters:  dcs,
		VMs:          fleet,
		StartHour:    ts.StartHour,
		Hours:        24, // nominal batch length; the daemon ticks past it freely
		HorizonHours: ts.HorizonHours,
		Link:         wan.Link{BandwidthMbps: 1000, LatencyMs: 90},
		LPTimeout:    time.Duration(ts.LPTimeoutMS) * time.Millisecond,
	}, cat, nil
}
