package fleet

import (
	"fmt"
	"sort"
	"time"
)

// Admission control bounds how much migration load the orchestrator may
// place on the cluster at once: per shared link (so a rack drain cannot
// collapse the backbone into N-way fair-share crawl) and per destination
// host (so an evacuation cannot funnel every inbound stream into one NIC).

// AdmissionPolicy bounds concurrent migrations.
type AdmissionPolicy struct {
	// MaxPerLink caps concurrent migrations whose route crosses any single
	// shared link (0 = unlimited).
	MaxPerLink int
	// MaxPerHost caps concurrent inbound migrations per destination host
	// (0 = unlimited).
	MaxPerHost int
}

// AdmissionError is the typed error for capacity exhaustion: a plan asked
// for a placement the cluster cannot ever satisfy (as opposed to transient
// contention, which the scheduler waits out).
type AdmissionError struct {
	// VM is the migration that could not be placed.
	VM string
	// Resource names what ran out: "ram" (destination host memory),
	// "destination" (no candidate host at all).
	Resource string
	// Name is the exhausted resource's identity (host name), when known.
	Name string
	// Need/Have quantify the shortfall for sized resources (bytes for ram).
	Need, Have uint64
}

func (e *AdmissionError) Error() string {
	switch e.Resource {
	case "ram":
		return fmt.Sprintf("fleet: admission: VM %s needs %d MiB on host %s, %d MiB free",
			e.VM, e.Need>>20, e.Name, e.Have>>20)
	case "destination":
		return fmt.Sprintf("fleet: admission: no destination host can take VM %s (%d MiB)",
			e.VM, e.Need>>20)
	}
	return fmt.Sprintf("fleet: admission: VM %s: %s %s exhausted", e.VM, e.Resource, e.Name)
}

// admissionState tracks in-flight migrations against the policy. All
// mutation happens under the cooperative scheduler (one process at a time),
// so plain maps are race-free.
type admissionState struct {
	policy  AdmissionPolicy
	perLink map[string]int
	perHost map[string]int
}

func newAdmissionState(p AdmissionPolicy) *admissionState {
	return &admissionState{
		policy:  p,
		perLink: map[string]int{},
		perHost: map[string]int{},
	}
}

// admissible reports whether a migration over route into dest fits the
// policy right now.
func (a *admissionState) admissible(route []string, dest string) bool {
	if a.policy.MaxPerLink > 0 {
		for _, l := range route {
			if a.perLink[l] >= a.policy.MaxPerLink {
				return false
			}
		}
	}
	if a.policy.MaxPerHost > 0 && a.perHost[dest] >= a.policy.MaxPerHost {
		return false
	}
	return true
}

func (a *admissionState) admit(route []string, dest string) {
	for _, l := range route {
		a.perLink[l]++
	}
	a.perHost[dest]++
}

func (a *admissionState) release(route []string, dest string) {
	for _, l := range route {
		a.perLink[l]--
	}
	a.perHost[dest]--
}

// VerifyAdmission post-checks a completed plan against the policy from the
// per-move attempt records: at no instant may more migrations than
// MaxPerLink have been in flight across one link, nor more than MaxPerHost
// inbound on one destination. Every attempt is checked as its own interval,
// so the caps provably held across retries and relocations too. The chaos
// runner uses it as the "admission never over-commits" invariant.
func VerifyAdmission(moves []MoveResult, policy AdmissionPolicy) error {
	type edge struct {
		at    time.Duration
		delta int
	}
	check := func(kind, name string, edges []edge, limit int) error {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].at != edges[j].at {
				return edges[i].at < edges[j].at
			}
			// Ends sort before starts at the same instant: back-to-back
			// handoff is not an over-commit.
			return edges[i].delta < edges[j].delta
		})
		cur, peak := 0, 0
		for _, e := range edges {
			cur += e.delta
			if cur > peak {
				peak = cur
			}
		}
		if peak > limit {
			return fmt.Errorf("fleet: admission over-commit: %s %s carried %d concurrent migrations (limit %d)",
				kind, name, peak, limit)
		}
		return nil
	}
	if policy.MaxPerLink > 0 {
		perLink := map[string][]edge{}
		for i := range moves {
			for _, a := range moves[i].Attempts {
				for _, l := range a.Route {
					perLink[l] = append(perLink[l],
						edge{a.StartAt, 1}, edge{a.EndAt, -1})
				}
			}
		}
		names := make([]string, 0, len(perLink))
		for n := range perLink {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if err := check("link", n, perLink[n], policy.MaxPerLink); err != nil {
				return err
			}
		}
	}
	if policy.MaxPerHost > 0 {
		perHost := map[string][]edge{}
		for i := range moves {
			for _, a := range moves[i].Attempts {
				perHost[a.To] = append(perHost[a.To],
					edge{a.StartAt, 1}, edge{a.EndAt, -1})
			}
		}
		names := make([]string, 0, len(perHost))
		for n := range perHost {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if err := check("host", n, perHost[n], policy.MaxPerHost); err != nil {
				return err
			}
		}
	}
	return nil
}
