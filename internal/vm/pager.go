// Package vm implements the pager: the OS service responsible for address
// space layouts and demand paging (paper §4.3). Page faults flow
// TileMux -> pager -> controller (MapPages) -> TileMux, exactly as in the
// paper: the controller never touches page tables itself, it only forwards
// validated mapping requests to the TileMux instance that owns them.
package vm

import (
	"fmt"

	"m3v/internal/activity"
	"m3v/internal/cap"
	"m3v/internal/dtu"
	"m3v/internal/noc"
	"m3v/internal/proto"
)

// ServiceName is the name the pager registers with the controller.
const ServiceName = "pager"

// faultCost models the pager's per-fault work (allocation, zeroing, address
// space bookkeeping) in core cycles.
const faultCost = 1500

// poolBytes is the physical-memory pool backing demand-paged memory.
const poolBytes = 4 << 20

// Config parameterizes the pager program.
type Config struct {
	// Ready is set to true once the service is registered.
	Ready *bool
}

// session is the pager-side state of one client session.
type session struct {
	child uint32 // global activity id the session pages for
	next  uint64 // bump offset into the pool
}

// Program returns the pager's activity program.
func Program(cfg Config) activity.Program {
	return func(a *activity.Activity) {
		rgSel, err := a.SysCreateRGate(16, 128)
		if err != nil {
			panic(fmt.Sprintf("pager: rgate: %v", err))
		}
		rgEp, err := a.SysActivate(rgSel)
		if err != nil {
			panic(fmt.Sprintf("pager: activate: %v", err))
		}
		poolSel, err := a.SysCreateMGate(poolBytes, dtu.PermRW)
		if err != nil {
			panic(fmt.Sprintf("pager: pool: %v", err))
		}
		if err := a.SysCreateSrv(ServiceName, rgSel); err != nil {
			panic(fmt.Sprintf("pager: register: %v", err))
		}
		if cfg.Ready != nil {
			*cfg.Ready = true
		}
		sessions := make(map[uint64]*session)
		a.Serve(rgEp, func(msg dtu.Message) ([]byte, bool) {
			op, r, err := proto.ParseOp(msg.Data)
			if err != nil {
				return proto.Resp(proto.EInvalid), false
			}
			switch op {
			case proto.OpPagerInit:
				child := r.U32()
				if r.Err() != nil {
					return proto.Resp(proto.EInvalid), false
				}
				sessions[msg.Label] = &session{child: child}
				return proto.Resp(proto.EOK), false
			case proto.OpPageFault:
				_ = dtu.ActID(r.U16()) // tile-local id, informational
				vaddr := r.U64()
				_ = dtu.Perm(r.U8())
				s := sessions[msg.Label]
				if s == nil || r.Err() != nil {
					return proto.Resp(proto.EInvalid), false
				}
				a.Compute(faultCost)
				if s.next+dtu.PageSize > poolBytes {
					return proto.Resp(proto.ENoSpace), false
				}
				physOff := s.next
				s.next += dtu.PageSize
				err := a.SysMapPages(s.child, vaddr&^uint64(dtu.PageSize-1),
					poolSel, physOff, 1, dtu.PermRW)
				if err != nil {
					return proto.Resp(proto.ENoSpace), false
				}
				return proto.Resp(proto.EOK), false
			default:
				return proto.Resp(proto.EInvalid), false
			}
		})
	}
}

// Spawn starts a pager on the given tile and waits until it registered.
func Spawn(parent *activity.Activity, tileSel cap.Sel, tile noc.TileID) (activity.ChildRef, error) {
	ready := false
	ref, err := parent.Spawn(tileSel, tile, "pager", nil, Program(Config{Ready: &ready}))
	if err != nil {
		return activity.ChildRef{}, err
	}
	for !ready {
		parent.Compute(1000)
		parent.Yield()
	}
	return ref, nil
}

// SpawnPaged creates a child activity with demand paging: the pager session
// is attached between creation and start, so every fault of the child is
// served from the pager's pool.
func SpawnPaged(parent *activity.Activity, tileSel cap.Sel, tile noc.TileID, name string, env map[string]interface{}, prog activity.Program) (activity.ChildRef, error) {
	ref, err := parent.SysCreateActivity(tileSel, tile, name)
	if err != nil {
		return activity.ChildRef{}, err
	}
	if err := AttachChild(parent, ref); err != nil {
		return activity.ChildRef{}, err
	}
	parent.Loader.Load(ref, name, func(child *activity.Activity) {
		child.Env = env
		if child.Env == nil {
			child.Env = map[string]interface{}{}
		}
		prog(child)
	})
	if err := parent.SysStart(ref.ActSel); err != nil {
		return activity.ChildRef{}, err
	}
	return ref, nil
}

// AttachChild binds a freshly created child activity to the pager: it opens
// a session, announces the child, and asks the controller to install the
// page-fault channel in the child tile's TileMux.
func AttachChild(parent *activity.Activity, child activity.ChildRef) error {
	sess, err := parent.SysOpenSess(ServiceName)
	if err != nil {
		return fmt.Errorf("pager session: %w", err)
	}
	sgEp, err := parent.SysActivate(sess.SGateSel)
	if err != nil {
		return fmt.Errorf("pager gate: %w", err)
	}
	rgSel, err := parent.SysCreateRGate(1, 128)
	if err != nil {
		return err
	}
	rgEp, err := parent.SysActivate(rgSel)
	if err != nil {
		return err
	}
	resp, err := parent.Call(sgEp, rgEp, proto.NewWriter(proto.OpPagerInit).U32(child.ID).Done())
	if err != nil {
		return fmt.Errorf("pager init: %w", err)
	}
	if code, _, err := proto.ParseResp(resp); err != nil || code != proto.EOK {
		return fmt.Errorf("pager init rejected: %v/%v", code, err)
	}
	if err := parent.SysSetPager(child.ActSel, sess.SessSel); err != nil {
		return fmt.Errorf("set pager: %w", err)
	}
	return nil
}
