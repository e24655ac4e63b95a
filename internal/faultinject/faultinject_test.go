package faultinject

import (
	"testing"
	"time"
)

func TestConfigureAndFire(t *testing.T) {
	defer Disable()
	if Enabled() {
		t.Fatal("enabled before Configure")
	}
	if Fire("derive.vote") {
		t.Fatal("disarmed point fired")
	}
	if err := Configure("derive.vote=panic/3, cache.storm=fire/2 ,sink.write=sleep:1ms/1"); err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("not enabled after Configure")
	}

	// Panic directives fire on every Nth arrival with a typed value.
	fired := 0
	for i := 1; i <= 6; i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					p, ok := r.(Panic)
					if !ok || p.Point != "derive.vote" {
						t.Fatalf("recovered %v, want Panic{derive.vote}", r)
					}
					fired++
				}
			}()
			Fire("derive.vote")
		}()
	}
	if fired != 2 {
		t.Fatalf("panic fired %d times over 6 arrivals at /3, want 2", fired)
	}

	// Fire directives report true on period.
	got := 0
	for i := 0; i < 10; i++ {
		if Fire("cache.storm") {
			got++
		}
	}
	if got != 5 {
		t.Fatalf("fire directive fired %d times over 10 arrivals at /2, want 5", got)
	}

	// Sleep directives block for the configured duration.
	start := time.Now()
	if !Fire("sink.write") {
		t.Fatal("sleep directive did not report firing")
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("sleep directive did not sleep")
	}

	// Unconfigured points stay silent even while armed.
	if Fire("gibbs.chain") {
		t.Fatal("unarmed point fired while others are armed")
	}

	Disable()
	if Enabled() || Fire("derive.vote") {
		t.Fatal("Disable did not disarm")
	}
}

func TestArrivals(t *testing.T) {
	defer Disable()
	if err := Configure("cache.storm=fire/3"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		Fire("cache.storm")
		Fire("derive.vote") // not armed: not counted
	}
	if n := Arrivals("cache.storm"); n != 5 {
		t.Fatalf("Arrivals(cache.storm) = %d after 5 arrivals, want 5", n)
	}
	if n := Arrivals("derive.vote"); n != 0 {
		t.Fatalf("Arrivals of an unarmed point = %d, want 0", n)
	}
	Disable()
	if n := Arrivals("cache.storm"); n != 0 {
		t.Fatalf("Arrivals after Disable = %d, want 0", n)
	}
}

func TestConfigureRejectsBadSpecs(t *testing.T) {
	defer Disable()
	for _, spec := range []string{
		"novalue",
		"p=panic",       // no period
		"p=panic/0",     // zero period
		"p=panic/x",     // bad period
		"p=explode/2",   // unknown kind
		"p=sleep/2",     // sleep without duration
		"p=sleep:zzz/2", // bad duration
		"p=panic:5ms/2", // panic with duration
		"=panic/2",      // empty point
	} {
		if err := Configure(spec); err == nil {
			t.Errorf("Configure(%q) accepted a bad spec", spec)
		}
	}
	// A rejected spec must not leave points half-armed.
	if err := Configure("ok=fire/1"); err != nil {
		t.Fatal(err)
	}
	if err := Configure("bad"); err == nil {
		t.Fatal("bad spec accepted")
	}
	if !Fire("ok") {
		t.Fatal("failed Configure clobbered the previous arming")
	}
	if err := Configure(""); err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Fatal("empty spec did not disable")
	}
}
