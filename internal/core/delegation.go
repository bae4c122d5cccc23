package core

import (
	"context"
	"fmt"
	"time"
)

// Supplier is an upstream promise maker backing delegation (§5): "Promises
// are made that rely on the promises of third parties. For example, a
// purchase order can be accepted by the merchant if it has received a
// promise from the distributor that a backorder will be fulfilled on time."
//
// When an anonymous-view promise request exceeds local unreserved stock and
// the pool has a registered Supplier, the manager covers the shortfall by
// obtaining an upstream promise for the missing quantity.
//
// Supplier calls cross trust domains and are NOT part of the local ACID
// transaction (§8: the transaction "does not include any external messaging
// or code outside the scope of the service"). The manager therefore
// compensates: an upstream promise obtained during a request that later
// aborts is released again, and upstream releases triggered by a local
// release run only after the local transaction commits. Compensation and
// post-commit releases run under context.Background() — a dead client must
// not strand upstream state.
//
// The request context flows through: cancelling the downstream request
// cancels the upstream call it is waiting on.
type Supplier interface {
	// RequestPromise asks for qty units of pool for the given duration,
	// returning the upstream promise id on success.
	RequestPromise(ctx context.Context, pool string, qty int64, d time.Duration) (id string, err error)
	// ReleasePromise hands an upstream promise back.
	ReleasePromise(ctx context.Context, id string) error
	// ConsumePromise fulfils qty units under the upstream promise and
	// releases it (the backorder ships).
	ConsumePromise(ctx context.Context, id string, qty int64) error
}

// ManagerSupplier adapts a local Manager into a Supplier, letting tests and
// examples build merchant→distributor chains in-process; across processes,
// promises.EngineSupplier fronts a transport client the same way.
type ManagerSupplier struct {
	// M is the upstream manager.
	M *Manager
	// Client is the identity the downstream manager uses upstream.
	Client string
}

// RequestPromise implements Supplier.
func (s *ManagerSupplier) RequestPromise(ctx context.Context, pool string, qty int64, d time.Duration) (string, error) {
	resp, err := s.M.Execute(ctx, Request{
		Client: s.Client,
		PromiseRequests: []PromiseRequest{{
			Predicates: []Predicate{Quantity(pool, qty)},
			Duration:   d,
		}},
	})
	if err != nil {
		return "", err
	}
	pr := resp.Promises[0]
	if !pr.Accepted {
		return "", fmt.Errorf("core: upstream rejected promise for %d of %q: %s", qty, pool, pr.Reason)
	}
	return pr.PromiseID, nil
}

// ReleasePromise implements Supplier.
func (s *ManagerSupplier) ReleasePromise(ctx context.Context, id string) error {
	_, err := s.M.Execute(ctx, Request{
		Client: s.Client,
		Env:    []EnvEntry{{PromiseID: id, Release: true}},
	})
	return err
}

// ConsumePromise implements Supplier: the upstream application action ships
// qty units (drawing down the pool) and the protecting promise is released
// atomically with it (§4, second requirement).
func (s *ManagerSupplier) ConsumePromise(ctx context.Context, id string, qty int64) error {
	m := s.M
	resp, err := m.Execute(ctx, Request{
		Client: s.Client,
		Env:    []EnvEntry{{PromiseID: id, Release: true}},
		Action: func(ac *ActionContext) (any, error) {
			p, err := m.promise(ac.Tx, id)
			if err != nil {
				return nil, err
			}
			for _, pred := range p.Predicates {
				if pred.View != AnonymousView {
					continue
				}
				if _, err := ac.Resources.AdjustPool(ac.Tx, pred.Pool, -qty); err != nil {
					return nil, err
				}
			}
			return nil, nil
		},
	})
	if err != nil {
		return err
	}
	return resp.ActionErr
}
