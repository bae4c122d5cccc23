package transport_test

// The supplier tests live in the external test package because the
// delegation adapter they exercise, promises.EngineSupplier, sits in the
// facade, which imports this package.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/promises"
)

// newDistributor serves a manager holding qty units of pool, with the
// standard action handlers, over an HTTP test server.
func newDistributor(t *testing.T, pool string, qty int64) (*httptest.Server, *core.Manager) {
	t.Helper()
	m, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tx := m.Store().Begin(txn.Block)
	if err := m.Resources().CreatePool(tx, pool, qty, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	reg := service.NewRegistry()
	service.RegisterStandard(reg)
	srv := httptest.NewServer(transport.NewServer(m, reg).Handler())
	t.Cleanup(srv.Close)
	return srv, m
}

func TestRemoteSupplierDelegationChain(t *testing.T) {
	ctx := context.Background()
	// Distributor server; merchant manager delegates to it over HTTP (E11).
	distSrv, distM := newDistributor(t, "widgets", 10)
	sup := &promises.EngineSupplier{E: &transport.Client{BaseURL: distSrv.URL, Client: "merchant"}}
	merchant, err := core.New(core.Config{
		Suppliers: map[string]core.Supplier{"widgets": sup},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := merchant.Store().Begin(txn.Block)
	if err := merchant.Resources().CreatePool(tx, "widgets", 3, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	resp, err := merchant.Execute(ctx, core.Request{
		Client: "customer",
		PromiseRequests: []core.PromiseRequest{{
			Predicates: []core.Predicate{core.Quantity("widgets", 8)},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := resp.Promises[0]
	if !pr.Accepted {
		t.Fatalf("delegated grant over HTTP rejected: %s", pr.Reason)
	}
	info, _ := merchant.PromiseInfo(pr.PromiseID)
	if info.DelegatedQty[0] != 5 {
		t.Fatalf("delegated qty = %d", info.DelegatedQty[0])
	}
	// The distributor holds the upstream promise.
	up, err := distM.PromiseInfo(info.DelegatedID[0])
	if err != nil {
		t.Fatal(err)
	}
	if up.State != core.Active {
		t.Fatalf("upstream state = %v", up.State)
	}
	// Release propagates over HTTP.
	if _, err := merchant.Execute(ctx, core.Request{
		Client: "customer",
		Env:    []core.EnvEntry{{PromiseID: pr.PromiseID, Release: true}},
	}); err != nil {
		t.Fatal(err)
	}
	up, _ = distM.PromiseInfo(info.DelegatedID[0])
	if up.State != core.Released {
		t.Fatalf("upstream after release = %v", up.State)
	}
}

func TestRemoteSupplierConsume(t *testing.T) {
	ctx := context.Background()
	distSrv, distM := newDistributor(t, "w", 10)
	sup := &promises.EngineSupplier{E: &transport.Client{BaseURL: distSrv.URL, Client: "m"}}
	id, err := sup.RequestPromise(ctx, "w", 4, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.ConsumePromise(ctx, id, 4); err != nil {
		t.Fatal(err)
	}
	tx := distM.Store().Begin(txn.Block)
	defer tx.Commit()
	p, _ := distM.Resources().Pool(tx, "w")
	if p.OnHand != 6 {
		t.Fatalf("on hand = %d", p.OnHand)
	}
	if err := sup.ConsumePromise(ctx, "up-unknown", 1); err == nil {
		t.Fatal("unknown upstream promise consumed")
	}
}
