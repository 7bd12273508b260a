package budget

import (
	"errors"
	"sync"
	"testing"
)

// TestQueryMeterMatchesStandalone pins the tenancy invariant: a query meter
// charged through a tenant reports exactly what a standalone NewMeter(m)
// would — tenancy adds admission control, never cost.
func TestQueryMeterMatchesStandalone(t *testing.T) {
	r := NewRegistry()
	tn := r.Tenant("acme", 100)
	qm := r.QueryMeter("acme", 100, 8)
	sm := NewMeter(8)
	for _, c := range []struct {
		p Phase
		n int
	}{{PhaseCandidateGen, 8}, {PhaseTopK, 5}, {PhaseTopK, 3}} {
		if err := qm.Charge(c.p, c.n); err != nil {
			t.Fatal(err)
		}
		if err := sm.Charge(c.p, c.n); err != nil {
			t.Fatal(err)
		}
	}
	if qm.Report() != sm.Report() {
		t.Fatalf("tenant query report %v differs from standalone %v", qm.Report(), sm.Report())
	}
	if got := tn.Report().Total(); got != 16 {
		t.Fatalf("tenant absorbed %d charges, want 16", got)
	}
}

// TestTenantAdmissionRejectsAtomically pins the chained-charge contract: a
// charge the tenant meter rejects spends nothing on the query meter either,
// and one the query meter rejects never reaches the tenant.
func TestTenantAdmissionRejectsAtomically(t *testing.T) {
	r := NewRegistry()
	tn := r.Tenant("small", 10)
	qm := r.QueryMeter("small", 10, 100) // query limit far above the tenant allowance

	if err := qm.Charge(PhaseCandidateGen, 8); err != nil {
		t.Fatal(err)
	}
	err := qm.Charge(PhaseTopK, 5) // 8 + 5 > tenant limit 10
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("got %v, want ErrExhausted", err)
	}
	if got := qm.Report().Total(); got != 8 {
		t.Fatalf("rejected charge leaked into query meter: spent %d, want 8", got)
	}
	if got := tn.Report().Total(); got != 8 {
		t.Fatalf("rejected charge leaked into tenant meter: spent %d, want 8", got)
	}

	// The reverse direction: a child-limit rejection never consults the
	// tenant.
	qm2 := r.QueryMeter("small", 10, 1) // limit 2
	if err := qm2.Charge(PhaseTopK, 3); !errors.Is(err, ErrExhausted) {
		t.Fatalf("got %v, want ErrExhausted", err)
	}
	if got := tn.Report().Total(); got != 8 {
		t.Fatalf("child rejection charged the tenant: spent %d, want 8", got)
	}
}

// TestTenantsChargeIndependently pins the multi-tenant isolation claim:
// concurrent queries from different tenants each charge their own chain
// exactly as if run alone.
func TestTenantsChargeIndependently(t *testing.T) {
	r := NewRegistry()
	a := r.Tenant("a", 0)
	b := r.Tenant("b", 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		tn := a
		if i%2 == 1 {
			tn = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			qm := r.QueryMeter(tn.Name(), 0, 4)
			if err := qm.Charge(PhaseCandidateGen, 4); err != nil {
				t.Error(err)
			}
			if err := qm.Charge(PhaseTopK, 4); err != nil {
				t.Error(err)
			}
			if qm.Report().Total() != 8 {
				t.Errorf("query spent %d, want 8", qm.Report().Total())
			}
		}()
	}
	wg.Wait()
	if a.Report().Total() != 32 || b.Report().Total() != 32 {
		t.Fatalf("tenant totals %d/%d, want 32/32", a.Report().Total(), b.Report().Total())
	}
	reports := r.Reports()
	if len(reports) != 2 || reports["a"].Total() != 32 || reports["b"].Total() != 32 {
		t.Fatalf("registry reports wrong: %v", reports)
	}
}

// TestRegistryGetOrCreate pins registry semantics: first limit wins, Get
// never creates, unlimited default for non-positive limits.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Get("ghost"); ok {
		t.Fatalf("Get created a tenant")
	}
	tn := r.Tenant("x", 50)
	if again := r.Tenant("x", 9999); again != tn {
		t.Fatalf("second Tenant call returned a different tenant")
	}
	if tn.Meter().Limit() != 50 {
		t.Fatalf("first limit did not win: %d", tn.Meter().Limit())
	}
	if r.Tenant("free", 0).Meter().Limit() != Unlimited {
		t.Fatalf("non-positive limit is not Unlimited")
	}
	names := r.Names()
	if len(names) != 2 {
		t.Fatalf("names = %v, want 2 entries", names)
	}
	if tn.Name() != "x" {
		t.Fatalf("tenant name = %q", tn.Name())
	}
}

// TestRegistryQueryMeterCreatesOnFirstCharge pins the lazy form: a query
// refused before it spends leaves the registry untouched, and the first
// non-empty charge creates the tenant and is admitted against it.
func TestRegistryQueryMeterCreatesOnFirstCharge(t *testing.T) {
	r := NewRegistry()
	qm := r.QueryMeter("lazy", 10, 3)
	if err := qm.Charge(PhaseTopK, 0); err != nil {
		t.Fatal(err)
	}
	if err := qm.Charge(PhaseTopK, 7); !errors.Is(err, ErrExhausted) {
		t.Fatalf("over-query-budget charge: got %v, want ErrExhausted", err)
	}
	if reports := r.Reports(); len(reports) != 0 {
		t.Fatalf("no successful spend yet, but tenants = %v", reports)
	}
	if err := qm.Charge(PhaseCandidateGen, 2); err != nil {
		t.Fatal(err)
	}
	tenant, ok := r.Get("lazy")
	if !ok {
		t.Fatal("first charge did not create the tenant")
	}
	if rep := tenant.Report(); rep.Total() != 2 || rep.Limit != 10 {
		t.Fatalf("tenant report = %+v, want 2 spent of 10", rep)
	}
	// A second query of the same tenant is admitted against its allowance.
	if err := r.QueryMeter("lazy", 99, 5).Charge(PhaseTopK, 9); !errors.Is(err, ErrExhausted) {
		t.Fatalf("charge past the tenant allowance: got %v, want ErrExhausted", err)
	}
	if got := tenant.Report().Total(); got != 2 {
		t.Fatalf("rejected charge changed tenant spend to %d", got)
	}
}
