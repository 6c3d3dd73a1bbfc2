// Replication: the paper's motivating workload (§1). A cloud provider
// replicates a 30 TB dataset nightly between three data centers. With
// GRIPhoN it requests a full wavelength just for the bulk window while a small
// OTN circuit carries interactive traffic around the clock; the example
// compares that against paying for a static wavelength 24/7.
package main

import (
	"fmt"
	"log"
	"time"

	"griphon"
	"griphon/internal/baseline"
	"griphon/internal/traffic"
)

const (
	datasetBytes = 30e12 // 30 TB nightly
	nights       = 3
)

func main() {
	net, err := griphon.New(griphon.Backbone(), griphon.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	// The transfers run on the control plane's clock: one shard, so its kernel.
	k := net.ShardSet().Shard(0).Kernel

	fmt.Println("Nightly 30 TB replication DC-SEA -> DC-CHI, three nights")
	fmt.Println()

	// Keep a small interactive circuit up permanently.
	interactive, err := net.Connect("acme-cloud", "DC-SEA", "DC-CHI", griphon.Rate1G)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interactive 1G OTN circuit up (pipes %v) after %v\n",
		interactive.PipeIDs(), interactive.SetupTime().Round(time.Second))

	var bodBusy time.Duration
	for night := 0; night < nights; night++ {
		// Advance to 22:00 of this night.
		target := time.Duration(night)*24*time.Hour + 22*time.Hour
		net.Advance(target - net.Now())

		start := net.Now()
		bulk, err := net.Connect("acme-cloud", "DC-SEA", "DC-CHI", griphon.Rate10G)
		if err != nil {
			log.Fatal(err)
		}
		flow, err := traffic.NewFlow(k, datasetBytes)
		if err != nil {
			log.Fatal(err)
		}
		flow.SetRate(bulk.Rate)
		for !flow.Completed() {
			net.Advance(time.Minute)
		}
		if err := net.Disconnect("acme-cloud", bulk.ID); err != nil {
			log.Fatal(err)
		}
		busy := net.Now() - start
		bodBusy += busy
		fmt.Printf("night %d: 10G wavelength up %v total (setup %v + transfer %v + teardown)\n",
			night+1, busy.Round(time.Second), bulk.SetupTime().Round(time.Second),
			flow.Elapsed().Round(time.Second))
	}

	// Cost comparison: BoD pays for the hours used; static pays 24/7.
	total := net.Now()
	costs := baseline.DefaultCosts()
	km := interactive.Route().KM(net.Graph())
	if km == 0 {
		km = 2800 // OTN circuits ride pipes; use the SEA-CHI span
	}
	wavelengthMonthly := costs.WavelengthMonthly(km, 0)
	bodUtil := bodBusy.Hours() / total.Hours()
	fmt.Println()
	fmt.Printf("over %v: the bulk wavelength was held %v (%.0f%% of the time)\n",
		total.Round(time.Hour), bodBusy.Round(time.Minute), bodUtil*100)
	fmt.Printf("relative cost per month: static wavelength = %.0f units, BoD = %.0f units (%.1fx cheaper)\n",
		wavelengthMonthly, wavelengthMonthly*bodUtil, 1/bodUtil)
	fmt.Println("(plus the static line would have taken", baseline.StaticLeadTime, "to provision at all)")

}
