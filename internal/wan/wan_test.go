package wan

import (
	"errors"
	"testing"
)

func TestSetAndGetLink(t *testing.T) {
	n := NewNetwork(nil)
	if err := n.SetLink("a", "b", Link{BandwidthMbps: 100, LatencyMs: 10}); err != nil {
		t.Fatal(err)
	}
	l, err := n.LinkBetween("b", "a") // symmetric
	if err != nil {
		t.Fatal(err)
	}
	if l.BandwidthMbps != 100 {
		t.Errorf("bandwidth = %v", l.BandwidthMbps)
	}
	if _, err := n.LinkBetween("a", "c"); !errors.Is(err, ErrUnknownPair) {
		t.Errorf("want ErrUnknownPair, got %v", err)
	}
	if err := n.SetLink("a", "a", Link{BandwidthMbps: 1}); err == nil {
		t.Error("self link should error")
	}
	if err := n.SetLink("a", "b", Link{}); err == nil {
		t.Error("zero bandwidth should error")
	}
}

func TestDefaultLinkFallback(t *testing.T) {
	n := NewNetwork(&DefaultLink)
	l, err := n.LinkBetween("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if l.BandwidthMbps != DefaultLink.BandwidthMbps {
		t.Errorf("fallback link = %+v", l)
	}
}

func TestDistance(t *testing.T) {
	n := NewNetwork(nil)
	if err := n.SetLink("a", "b", Link{BandwidthMbps: 10, LatencyMs: 42}); err != nil {
		t.Fatal(err)
	}
	if d := n.Distance("a", "a"); d != 0 {
		t.Errorf("self distance = %v", d)
	}
	if d := n.Distance("a", "b"); d != 42 {
		t.Errorf("distance = %v, want the latency", d)
	}
	if d := n.Distance("a", "zzz"); d < 1e17 {
		t.Errorf("unknown pair distance = %v, want huge", d)
	}
}

func TestFullMesh(t *testing.T) {
	n, err := FullMesh([]string{"x", "y", "z"}, Link{BandwidthMbps: 10, LatencyMs: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"x", "y"}, {"y", "z"}, {"x", "z"}} {
		if _, err := n.LinkBetween(pair[0], pair[1]); err != nil {
			t.Errorf("missing link %v: %v", pair, err)
		}
	}
	if _, err := FullMesh([]string{"a", "a"}, Link{BandwidthMbps: 1}); err == nil {
		t.Error("duplicate names should error (self link)")
	}
}
