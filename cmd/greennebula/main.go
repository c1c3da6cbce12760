// Command greennebula runs the follow-the-renewables emulation of Section V:
// three green datacenters in different time zones, a fleet of HPC VMs, the
// GreenNebula scheduler re-partitioning the load every hour, live migrations
// over an emulated WAN, and GDFS shipping the dirty disk blocks.  It prints
// the per-hour trace behind Fig. 15.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"greencloud/internal/emul"
	"greencloud/internal/location"
	"greencloud/internal/vm"
	"greencloud/internal/wan"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "greennebula:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		vms       = flag.Int("vms", 9, "number of HPC VMs in the workload")
		hours     = flag.Int("hours", 24, "hours to emulate")
		startDay  = flag.Int("start-day", 172, "day of the typical meteorological year to start at")
		seed      = flag.Int64("seed", 21, "random seed for the synthetic catalog")
		locations = flag.Int("locations", 120, "number of candidate locations to pick the 3 sites from")
		predictor = flag.String("predictor", "perfect", "green energy predictor: perfect, persistence or diurnal")
		bandwidth = flag.Float64("bandwidth-mbps", 100, "WAN bandwidth between datacenters")
		overbuild = flag.Float64("overbuild", 6, "green plant size as a multiple of the fleet's demand")
	)
	flag.Parse()

	cat, err := location.Generate(location.Options{Count: *locations, Seed: *seed, RepresentativeDays: 1})
	if err != nil {
		return err
	}
	fleet := vm.NewHPCFleet("hpc", *vms)
	fleetKW := fleet.TotalPowerW() / 1000

	// Pick three good solar sites spread across time zones, like the
	// Mexico/Guam/Kenya network of Table III.
	sites := location.SpreadAcrossTimeZones(cat.TopBySolarCF(20), 3)
	dcs := make([]emul.DatacenterConfig, 0, len(sites))
	for _, s := range sites {
		dcs = append(dcs, emul.DatacenterConfig{
			Name:       s.Name,
			Site:       s,
			CapacityKW: fleetKW,
			SolarKW:    fleetKW * *overbuild / s.SolarCapacityFactor * 0.25,
			WindKW:     fleetKW * 0.02,
		})
	}

	fmt.Printf("Emulating %d VMs (%.2f kW) across %d datacenters for %d hours...\n",
		len(fleet), fleetKW, len(dcs), *hours)
	res, err := emul.Run(emul.Config{
		Datacenters:  dcs,
		VMs:          fleet,
		StartHour:    *startDay * 24,
		Hours:        *hours,
		HorizonHours: 24,
		Link:         wan.Link{BandwidthMbps: *bandwidth, LatencyMs: 90},
		Predictor:    *predictor,
	})
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "hour\tdatacenter\tgreen kW\tload kW\tPUE kW\tmigration kW\tbrown kW\tVMs")
	for _, rec := range res.Trace {
		fmt.Fprintf(w, "%d\t%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%d\n",
			rec.Hour, rec.Datacenter, rec.GreenKW, rec.LoadKW, rec.PUEOverheadKW,
			rec.MigrationKW, rec.BrownKW, rec.VMCount)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\n%d migrations, %.2f kWh migration overhead, %.1f%% of demand served green, avg schedule time %.0f ms\n",
		res.Migrations, res.TotalMigrationKWh, 100*res.GreenFraction,
		float64(res.AvgScheduleNanos)/1e6)
	return nil
}
