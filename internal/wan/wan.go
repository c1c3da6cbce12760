// Package wan emulates the wide-area links between datacenters: per-pair
// bandwidth and latency.
//
// The paper's prototype measured roughly 750 MB moved in under an hour over
// a VPN between Barcelona and Piscataway; the emulation uses links of that
// order by default, but every pair can be configured.
package wan

import (
	"errors"
	"fmt"
	"sync"
)

// Link describes the connectivity between one ordered pair of datacenters.
type Link struct {
	// BandwidthMbps is the usable bandwidth in megabits per second.
	BandwidthMbps float64
	// LatencyMs is the one-way latency in milliseconds.
	LatencyMs float64
}

// DefaultLink mirrors the paper's measured inter-continental VPN path:
// ~750 MB/hour is about 1.7 Mbps sustained; round up to 2 Mbps with 90 ms of
// latency.
var DefaultLink = Link{BandwidthMbps: 2, LatencyMs: 90}

// ErrUnknownPair reports a pair of datacenters with no link between them.
var ErrUnknownPair = errors.New("wan: no link between the given datacenters")

// Network is a set of named datacenters and the links between them.
type Network struct {
	mu        sync.RWMutex
	links     map[string]Link
	defaultLk *Link
}

// NewNetwork returns an empty network.  If defaultLink is non-nil it is used
// for any pair without an explicit link.
func NewNetwork(defaultLink *Link) *Network {
	var def *Link
	if defaultLink != nil {
		cp := *defaultLink
		def = &cp
	}
	return &Network{
		links:     make(map[string]Link),
		defaultLk: def,
	}
}

func pairKey(from, to string) string {
	if from < to {
		return from + "|" + to
	}
	return to + "|" + from
}

// SetLink configures the (symmetric) link between two datacenters.
func (n *Network) SetLink(a, b string, link Link) error {
	if link.BandwidthMbps <= 0 {
		return fmt.Errorf("wan: link %s-%s must have positive bandwidth", a, b)
	}
	if a == b {
		return fmt.Errorf("wan: cannot link %s to itself", a)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[pairKey(a, b)] = link
	return nil
}

// LinkBetween returns the link between two datacenters.
func (n *Network) LinkBetween(a, b string) (Link, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if l, ok := n.links[pairKey(a, b)]; ok {
		return l, nil
	}
	if n.defaultLk != nil && a != b {
		return *n.defaultLk, nil
	}
	return Link{}, fmt.Errorf("%w: %s-%s", ErrUnknownPair, a, b)
}

// Distance returns a scheduling distance between two datacenters: the link
// latency (GreenNebula migrates to the "closest" receiver first).  Unknown
// pairs are infinitely far.
func (n *Network) Distance(a, b string) float64 {
	if a == b {
		return 0
	}
	l, err := n.LinkBetween(a, b)
	if err != nil {
		return 1e18
	}
	return l.LatencyMs
}

// FullMesh builds a network connecting every pair of the given datacenters
// with the same link.
func FullMesh(datacenters []string, link Link) (*Network, error) {
	n := NewNetwork(nil)
	for i := range datacenters {
		for j := i + 1; j < len(datacenters); j++ {
			if err := n.SetLink(datacenters[i], datacenters[j], link); err != nil {
				return nil, err
			}
		}
	}
	return n, nil
}
