package migrate

import (
	"errors"
	"math"
	"testing"

	"greencloud/internal/vm"
	"greencloud/internal/wan"
)

func testNetwork(t *testing.T, mbps float64) *wan.Network {
	t.Helper()
	n, err := wan.FullMesh([]string{"bcn", "nj", "guam"}, wan.Link{BandwidthMbps: mbps, LatencyMs: 90})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSimulatePaperScenario(t *testing.T) {
	// The paper's validation: a VM with 512 MB of memory plus ~110 MB of
	// dirty disk migrates over a ~2 Mbps VPN in under an hour, so what it
	// moves fits in an hour of the link (900 MB).
	network := testNetwork(t, 2)
	res, err := Simulate(Plan{VM: vm.NewHPCVM("vm-0"), From: "bcn", To: "nj", DirtyDiskMB: 110}, network)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.TransferredMB < 512+110 {
		t.Errorf("transferred %v MB, want at least memory+dirty disk", res.TransferredMB)
	}
	if hourMB := 2.0 / 8 * 3600; res.TransferredMB > hourMB {
		t.Errorf("transferred %v MB, more than the %v MB an hour of 2 Mbps carries", res.TransferredMB, hourMB)
	}
	if res.ConservativeEnergyKWh != 0.03 { // 30 W × 1 h
		t.Errorf("conservative energy = %v kWh, want 0.03", res.ConservativeEnergyKWh)
	}
}

func TestSimulateFasterLinkIsFaster(t *testing.T) {
	// A faster link finishes each pre-copy round sooner, so the workload
	// dirties less memory meanwhile and less data is re-sent.
	slow := testNetwork(t, 2)
	fast := testNetwork(t, 1000)
	plan := Plan{VM: vm.NewHPCVM("vm-0"), From: "bcn", To: "nj", DirtyDiskMB: 110}
	slowRes, err := Simulate(plan, slow)
	if err != nil {
		t.Fatal(err)
	}
	fastRes, err := Simulate(plan, fast)
	if err != nil {
		t.Fatal(err)
	}
	if fastRes.TransferredMB >= slowRes.TransferredMB {
		t.Errorf("faster link should re-send less: %v vs %v MB", fastRes.TransferredMB, slowRes.TransferredMB)
	}
}

func TestSimulateWholeDiskWhenUnknown(t *testing.T) {
	network := testNetwork(t, 1000)
	v := vm.NewHPCVM("vm-0")
	res, err := Simulate(Plan{VM: v, From: "bcn", To: "guam", DirtyDiskMB: -1}, network)
	if err != nil {
		t.Fatal(err)
	}
	if res.TransferredMB < float64(v.DiskMB) {
		t.Errorf("transferred %v MB, want at least the whole %d MB disk", res.TransferredMB, v.DiskMB)
	}
}

func TestSimulateErrors(t *testing.T) {
	network := testNetwork(t, 2)
	v := vm.NewHPCVM("vm-0")
	if _, err := Simulate(Plan{VM: v, From: "bcn", To: "bcn"}, network); !errors.Is(err, ErrSameDatacenter) {
		t.Errorf("want ErrSameDatacenter, got %v", err)
	}
	if _, err := Simulate(Plan{VM: v, From: "bcn", To: "mars"}, network); err == nil {
		t.Error("unknown destination should error")
	}
	bad := v
	bad.MemoryMB = 0
	if _, err := Simulate(Plan{VM: bad, From: "bcn", To: "nj"}, network); err == nil {
		t.Error("invalid VM should error")
	}
}

func TestSimulateNonConvergingWorkloadStops(t *testing.T) {
	// A workload that dirties memory faster than a slow link can drain must
	// still terminate (maxRounds cap), having re-sent ever larger dirty
	// sets.
	network := testNetwork(t, 1)
	v := vm.NewHPCVM("hot")
	v.MemDirtyMBPerSecond = 1
	res, err := Simulate(Plan{VM: v, From: "bcn", To: "nj", DirtyDiskMB: 0}, network)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.TransferredMB, 0) || res.TransferredMB <= float64(maxRounds*v.MemoryMB) {
		t.Errorf("transferred %v MB, want a finite total above %d rounds of the %d MB memory image",
			res.TransferredMB, maxRounds, v.MemoryMB)
	}
}
