package rwa

import (
	"testing"

	"griphon/internal/optics"
	"griphon/internal/topo"
)

// benchGraphs returns the two topologies the ISSUE's micro-benchmarks run
// on: a deterministic 8x8 grid and a 60-PoP random continental mesh.
func benchGrid(b *testing.B) *topo.Graph {
	b.Helper()
	g, err := topo.Grid(8, 8, 300)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchContinental(b *testing.B) *topo.Graph {
	b.Helper()
	g, err := topo.Continental(60, 6, 7)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkShortestPath(b *testing.B) {
	b.Run("grid64", func(b *testing.B) {
		g := benchGrid(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := shortestPath(g, "G0000", "G0707", ByKM, Constraints{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("continental", func(b *testing.B) {
		g := benchContinental(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := shortestPath(g, "P000", "P059", ByKM, Constraints{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkKShortest(b *testing.B) {
	b.Run("grid64", func(b *testing.B) {
		g := benchGrid(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := KShortest(g, "G0000", "G0707", 4, ByHops, Constraints{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("continental", func(b *testing.B) {
		g := benchContinental(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := KShortest(g, "P000", "P059", 4, ByHops, Constraints{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkContinuityChannels measures the wavelength-continuity intersection
// across a multi-hop segment on a partially loaded plant.
func BenchmarkContinuityChannels(b *testing.B) {
	bench := func(b *testing.B, g *topo.Graph, src, dst topo.NodeID) {
		b.Helper()
		cfg := optics.DefaultConfig()
		plant, err := optics.NewPlant(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Load every third channel on every link so the intersection does
		// real work instead of returning the full grid.
		for _, l := range g.Links() {
			for ch := optics.Channel(1); int(ch) <= cfg.Channels; ch += 3 {
				if err := plant.Spectrum(l.ID).Reserve(ch, "bg"); err != nil {
					b.Fatal(err)
				}
			}
		}
		p, err := shortestPath(g, src, dst, ByKM, Constraints{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if free := plant.ContinuityChannels(p.Links); len(free) == 0 {
				b.Fatal("no common free channel")
			}
		}
	}
	b.Run("grid64", func(b *testing.B) {
		bench(b, benchGrid(b), "G0000", "G0707")
	})
	b.Run("continental", func(b *testing.B) {
		bench(b, benchContinental(b), "P000", "P059")
	})
}

func BenchmarkShortestPathBackbone(b *testing.B) {
	g := topo.Backbone()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := shortestPath(g, "SEA", "ATL", ByKM, Constraints{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKShortestBackbone(b *testing.B) {
	g := topo.Backbone()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := KShortest(g, "SEA", "ATL", 4, ByHops, Constraints{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindRouteBackbone(b *testing.B) {
	g := topo.Backbone()
	plant, err := optics.NewPlant(g, optics.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FindRoute(plant, "SEA", "NYC", Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindRouteGrid64(b *testing.B) {
	g := benchGrid(b)
	plant, err := optics.NewPlant(g, optics.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindRoute(plant, "G0000", "G0707", Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDisjointPair(b *testing.B) {
	g := topo.Backbone()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DisjointPair(g, "SEA", "ATL", 4, ByHops, Constraints{}); err != nil {
			b.Fatal(err)
		}
	}
}
