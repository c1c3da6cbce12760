// Package renewables is the public API for GreenNebula, the paper's
// follow-the-renewables VM placement and migration system: build a
// federation of green datacenters, hand it a fleet of HPC virtual machines,
// and run the hourly scheduler that moves the load to wherever green energy
// is being produced.
package renewables

import (
	"errors"
	"fmt"

	"greencloud/internal/emul"
	"greencloud/internal/location"
	"greencloud/internal/vm"
	"greencloud/internal/wan"
	"greencloud/placement"
)

// Datacenter describes one member of the federation.
type Datacenter struct {
	// Name identifies the datacenter.
	Name string
	// LocationIndex selects the site from the catalog.
	LocationIndex int
	// CapacityKW is the IT capacity.
	CapacityKW float64
	// SolarKW and WindKW are the on-site plant sizes.
	SolarKW float64
	WindKW  float64
}

// Config describes a follow-the-renewables run.
type Config struct {
	// Catalog supplies the weather/energy traces for the sites.
	Catalog *placement.Catalog
	// Datacenters is the federation (at least two).
	Datacenters []Datacenter
	// VMs is the number of paper-style HPC VMs to host (1 vCPU, 512 MB,
	// 5 GB disk, 30 W, 110 MB/h of disk writes).
	VMs int
	// StartDay is the day of the typical meteorological year to start at.
	StartDay int
	// Hours is the emulation length (default 24).
	Hours int
	// HorizonHours is the scheduler's prediction horizon (default 48).
	HorizonHours int
	// WANBandwidthMbps is the bandwidth between every pair of datacenters
	// (default: the paper's ~2 Mbps VPN measurement).
	WANBandwidthMbps float64
	// Predictor selects the green-energy predictor: "perfect" (paper
	// default), "persistence" or "diurnal".
	Predictor string
}

// HourSample is one datacenter-hour of the run.
type HourSample struct {
	Hour          int
	Datacenter    string
	GreenKW       float64
	LoadKW        float64
	OverheadKW    float64
	MigrationKW   float64
	BrownKW       float64
	VMs           int
	MigrationsIn  int
	MigrationsOut int
}

// Report summarizes a run.
type Report struct {
	Trace              []HourSample
	Migrations         int
	GreenFraction      float64
	MigrationEnergyKWh float64
	BrownEnergyKWh     float64
	AvgScheduleMillis  float64
}

// Errors returned by Run.
var ErrBadConfig = errors.New("renewables: invalid configuration")

// Run executes the follow-the-renewables emulation.
func Run(cfg Config) (*Report, error) {
	if cfg.Catalog == nil || len(cfg.Datacenters) < 2 {
		return nil, fmt.Errorf("%w: need a catalog and at least two datacenters", ErrBadConfig)
	}
	if cfg.VMs <= 0 {
		cfg.VMs = 9
	}
	if cfg.Hours <= 0 {
		cfg.Hours = 24
	}
	bandwidth := cfg.WANBandwidthMbps
	if bandwidth <= 0 {
		bandwidth = wan.DefaultLink.BandwidthMbps
	}

	inner := cfg.Catalog.Internal()
	dcs := make([]emul.DatacenterConfig, 0, len(cfg.Datacenters))
	for _, dc := range cfg.Datacenters {
		site, err := lookupSite(inner, dc.LocationIndex)
		if err != nil {
			return nil, err
		}
		name := dc.Name
		if name == "" {
			name = site.Name
		}
		dcs = append(dcs, emul.DatacenterConfig{
			Name:       name,
			Site:       site,
			CapacityKW: dc.CapacityKW,
			SolarKW:    dc.SolarKW,
			WindKW:     dc.WindKW,
		})
	}
	res, err := emul.Run(emul.Config{
		Datacenters:  dcs,
		VMs:          vm.NewHPCFleet("hpc", cfg.VMs),
		StartHour:    cfg.StartDay * 24,
		Hours:        cfg.Hours,
		HorizonHours: cfg.HorizonHours,
		Link:         wan.Link{BandwidthMbps: bandwidth, LatencyMs: 90},
		Predictor:    cfg.Predictor,
	})
	if err != nil {
		return nil, err
	}
	report := &Report{
		Migrations:         res.Migrations,
		GreenFraction:      res.GreenFraction,
		MigrationEnergyKWh: res.TotalMigrationKWh,
		BrownEnergyKWh:     res.TotalBrownKWh,
		AvgScheduleMillis:  float64(res.AvgScheduleNanos) / 1e6,
	}
	for _, rec := range res.Trace {
		report.Trace = append(report.Trace, HourSample{
			Hour:          rec.Hour,
			Datacenter:    rec.Datacenter,
			GreenKW:       rec.GreenKW,
			LoadKW:        rec.LoadKW,
			OverheadKW:    rec.PUEOverheadKW,
			MigrationKW:   rec.MigrationKW,
			BrownKW:       rec.BrownKW,
			VMs:           rec.VMCount,
			MigrationsIn:  rec.MigrationsIn,
			MigrationsOut: rec.MigrationsOut,
		})
	}
	return report, nil
}

func lookupSite(cat *location.Catalog, index int) (*location.Site, error) {
	site, err := cat.Site(index)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return site, nil
}

// BestSolarSitesAcrossTimeZones returns the indices of n good solar sites
// spread across time zones — a convenient starting federation for
// follow-the-sun experiments.
func BestSolarSitesAcrossTimeZones(catalog *placement.Catalog, n int) []int {
	picked := location.SpreadAcrossTimeZones(catalog.Internal().TopBySolarCF(24), n)
	out := make([]int, 0, len(picked))
	for _, p := range picked {
		out = append(out, p.ID)
	}
	return out
}
