package service

import (
	"context"

	"pathfinder/internal/algebra"
	"pathfinder/internal/engine"
	"pathfinder/internal/mil"
)

// NewMILServer returns a MIL TCP server sharing this service's engine,
// with every connection routed through the service: each TCP client gets
// an accounting session, and both the MIL and XQ commands pass the
// prepared-plan and admission paths exactly like HTTP requests.
func (s *Service) NewMILServer() *mil.Server {
	srv := mil.NewServerWith(s.eng)
	srv.Hooks = s
	return srv
}

// ConnOpened implements mil.ConnHooks: one session per TCP connection.
func (s *Service) ConnOpened() mil.ConnSession {
	return &milSession{s: s, sess: s.OpenSession("tcp")}
}

// milSession adapts one TCP connection to the service's execution paths.
type milSession struct {
	s    *Service
	sess *Session
}

func (m *milSession) ExecQuery(ctx context.Context, req engine.QueryRequest) (string, error) {
	resp, err := m.s.Query(ctx, Request{
		Query:      req.Query,
		Collection: req.Collection,
		ContextDoc: req.ContextDoc,
		Session:    m.sess,
	})
	if err != nil {
		return "", err
	}
	return resp.Result, nil
}

func (m *milSession) ExecPlan(ctx context.Context, plan *algebra.Op) (string, error) {
	resp, err := m.s.QueryPlan(ctx, plan, m.sess)
	if err != nil {
		return "", err
	}
	return resp.Result, nil
}

func (m *milSession) Close() { m.s.CloseSession(m.sess) }
