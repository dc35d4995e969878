//! The static verifier: abstract interpretation over a parsed program.
//!
//! [`verify`] is the only constructor of [`VerifiedProgram`], and
//! [`VmNode`](crate::interp::VmNode) only accepts a `VerifiedProgram` — the
//! type system enforces the eBPF-style verify-then-run gate.  The analysis
//! proves four properties before any program may execute:
//!
//! 1. **Bounded execution.**  Loop structure is validated (matched
//!    `loop`/`endloop`, bounded depth, trip counts in `1..=MAX_LOOP_COUNT`),
//!    every jump is forward and stays inside its loop region, and the
//!    worst-case executed-instruction count — every instruction weighted by
//!    the product of its enclosing static trip counts — must fit the
//!    declared fuel budget.
//! 2. **Topic-access discipline.**  Every `ld.*` resolves to a declared
//!    subscription and every `st.*` to a declared output.  This check is
//!    flow-insensitive, so undeclared accesses are rejected even in dead
//!    code.
//! 3. **No runtime panics.**  A forward data-flow analysis over the
//!    register file tracks an abstract value per scratch register —
//!    *undefined*, a scalar **interval**, boolean, vector, path, or
//!    *mixed* (type conflict across joining paths).  Reads of undefined or
//!    mixed registers, operands of the wrong type, and `fdiv`/`fmod` whose
//!    divisor interval contains zero are rejected with the offending
//!    instruction named.  Intervals are widened to ±∞ when a join grows
//!    them, so the fixpoint terminates on any loop structure.
//! 4. **Allocation discipline** is a property of the ISA itself (register
//!    values clone without allocating), so verification only needs 1–3.

use crate::error::VerifyError;
use crate::isa::{
    FOp, FUn, Instr, Program, Reg, Ty, MAX_BUDGET, MAX_LOOP_COUNT, MAX_LOOP_DEPTH, NUM_GLOBALS,
    NUM_SCRATCH,
};
use soter_core::node::NodeInfo;
use std::collections::VecDeque;

/// A program that passed [`verify`].  This is the *only* type
/// [`VmNode`](crate::interp::VmNode) accepts, so an unverified program can
/// never run.
#[derive(Debug, Clone)]
pub struct VerifiedProgram {
    program: Program,
    worst_case: u64,
}

impl VerifiedProgram {
    /// The underlying program (read-only).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The proven worst-case executed-instruction count of one `step`
    /// (always ≤ the declared budget).
    pub fn worst_case_cost(&self) -> u64 {
        self.worst_case
    }

    /// The node interface the program declares, in the shape the
    /// composition and wellformedness machinery consumes.
    pub fn info(&self) -> NodeInfo {
        NodeInfo {
            name: self.program.name.clone(),
            subscriptions: self.program.subs.clone(),
            outputs: self.program.outs.clone(),
            period: self.program.period,
        }
    }
}

/// The abstract value of one scratch register at one program point.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AbsVal {
    /// Not yet written on some path reaching this point.
    Undef,
    /// A scalar within the (possibly infinite) closed interval.
    Scalar(f64, f64),
    /// A boolean.
    Bool,
    /// A 3-vector.
    Vec3,
    /// A path handle.
    Path,
    /// Different defined types on different paths.
    Mixed,
}

impl AbsVal {
    fn describe(self) -> &'static str {
        match self {
            AbsVal::Undef => "undefined",
            AbsVal::Scalar(..) => "scalar",
            AbsVal::Bool => "bool",
            AbsVal::Vec3 => "vec",
            AbsVal::Path => "path",
            AbsVal::Mixed => "mixed",
        }
    }
}

/// Replaces NaN bounds (from overflowing interval arithmetic like ∞−∞)
/// with the sound ±∞, and repairs inverted bounds.
fn sane(lo: f64, hi: f64) -> AbsVal {
    let lo = if lo.is_nan() { f64::NEG_INFINITY } else { lo };
    let hi = if hi.is_nan() { f64::INFINITY } else { hi };
    if lo > hi {
        AbsVal::Scalar(f64::NEG_INFINITY, f64::INFINITY)
    } else {
        AbsVal::Scalar(lo, hi)
    }
}

const TOP: AbsVal = AbsVal::Scalar(f64::NEG_INFINITY, f64::INFINITY);

/// Join for the merge of two control-flow paths.  `widen` is applied
/// relative to `old` (the state already recorded at the program point): any
/// growth of a scalar interval jumps straight to ±∞, which bounds the
/// number of times a point can change and guarantees the fixpoint
/// terminates across loop back edges.
fn join(old: AbsVal, new: AbsVal) -> AbsVal {
    use AbsVal::*;
    match (old, new) {
        (Undef, _) | (_, Undef) => Undef,
        (Mixed, _) | (_, Mixed) => Mixed,
        (Scalar(l1, h1), Scalar(l2, h2)) => {
            let lo = if l2 < l1 { f64::NEG_INFINITY } else { l1 };
            let hi = if h2 > h1 { f64::INFINITY } else { h1 };
            AbsVal::Scalar(lo, hi)
        }
        (Bool, Bool) => Bool,
        (Vec3, Vec3) => Vec3,
        (Path, Path) => Path,
        _ => Mixed,
    }
}

type AbsState = [AbsVal; NUM_SCRATCH];

/// Per-instruction loop context: the stack of enclosing `loop` instruction
/// indices.  By convention a `loop` instruction is *outside* its own region
/// and its `endloop` is *inside* — this makes both the cost weighting and
/// the jump-region equality check come out right (jumping to the `endloop`
/// of the innermost enclosing loop is a `continue`, jumping to a `loop`
/// from just before it is fine, and anything crossing a boundary is
/// rejected).
#[derive(Debug, Clone, PartialEq, Default)]
struct Region(Vec<u32>);

struct Analysis {
    /// Loop region of every instruction (see [`Region`]); index `len` is
    /// the virtual exit point with an empty region.
    regions: Vec<Region>,
    /// `loop` trip counts keyed by the `loop` instruction index.
    counts: Vec<u32>,
}

/// Verifies a parsed program, consuming it into a [`VerifiedProgram`] on
/// success.
pub fn verify(program: Program) -> Result<VerifiedProgram, VerifyError> {
    if program.budget > MAX_BUDGET {
        return Err(VerifyError::BudgetTooLarge {
            budget: program.budget,
        });
    }
    wellformed(&program)?;
    let analysis = structure(&program)?;
    topics(&program)?;
    let worst_case = budget(&program, &analysis)?;
    dataflow(&program, &analysis)?;
    Ok(VerifiedProgram {
        program,
        worst_case,
    })
}

/// Pass 0: every register, global and topic index is in range.  The
/// assembler cannot emit out-of-range indices, but [`verify`] takes any
/// [`Program`] value and must reject hand-built garbage with a structured
/// error instead of panicking — the later passes index unchecked.
fn wellformed(p: &Program) -> Result<(), VerifyError> {
    for (i, instr) in p.instrs.iter().enumerate() {
        let mut regs: [Option<Reg>; 4] = [None; 4];
        let mut greg = None;
        let mut topic = None;
        match instr {
            Instr::Fconst { rd, .. } | Instr::Vconst { rd, .. } => regs[0] = Some(*rd),
            Instr::Mov { rd, ra }
            | Instr::Fun { rd, ra, .. }
            | Instr::Bnot { rd, ra }
            | Instr::Vnorm { rd, ra }
            | Instr::Vget { rd, ra, .. } => regs = [Some(*rd), Some(*ra), None, None],
            Instr::Fbin { rd, ra, rb, .. }
            | Instr::Fcmp { rd, ra, rb, .. }
            | Instr::Bbin { rd, ra, rb, .. }
            | Instr::Vadd { rd, ra, rb }
            | Instr::Vsub { rd, ra, rb }
            | Instr::Vdot { rd, ra, rb } => regs = [Some(*rd), Some(*ra), Some(*rb), None],
            Instr::Select { rd, rc, ra, rb } => regs = [Some(*rd), Some(*rc), Some(*ra), Some(*rb)],
            Instr::Vscale { rd, rv, rs } => regs = [Some(*rd), Some(*rv), Some(*rs), None],
            Instr::Vpack { rd, rx, ry, rz } => regs = [Some(*rd), Some(*rx), Some(*ry), Some(*rz)],
            Instr::Plen { rd, rp } => regs = [Some(*rd), Some(*rp), None, None],
            Instr::Pget { rd, rp, ri } => regs = [Some(*rd), Some(*rp), Some(*ri), None],
            Instr::Gld { rd, g } => {
                regs[0] = Some(*rd);
                greg = Some(*g);
            }
            Instr::Gst { g, rs } => {
                regs[0] = Some(*rs);
                greg = Some(*g);
            }
            Instr::LdF { rd, topic: t, .. }
            | Instr::LdV { rd, topic: t }
            | Instr::LdPos { rd, topic: t }
            | Instr::LdVel { rd, topic: t }
            | Instr::LdPath { rd, topic: t } => {
                regs[0] = Some(*rd);
                topic = Some(*t);
            }
            Instr::StF { topic: t, rs } | Instr::StV { topic: t, rs } => {
                regs[0] = Some(*rs);
                topic = Some(*t);
            }
            Instr::Jz { rc, .. } | Instr::Jnz { rc, .. } => regs[0] = Some(*rc),
            Instr::Jmp { .. } | Instr::Loop { .. } | Instr::EndLoop | Instr::Halt => {}
        }
        let malformed = |message: String| VerifyError::MalformedInstruction {
            at: i,
            instr: format!("{instr:?}"),
            message,
        };
        for r in regs.into_iter().flatten() {
            if r.0 as usize >= NUM_SCRATCH {
                return Err(malformed(format!(
                    "register index {} is out of range (r0..r{})",
                    r.0,
                    NUM_SCRATCH - 1
                )));
            }
        }
        if let Some(g) = greg {
            if g.0 as usize >= NUM_GLOBALS {
                return Err(malformed(format!(
                    "global index {} is out of range (g0..g{})",
                    g.0,
                    NUM_GLOBALS - 1
                )));
            }
        }
        if let Some(t) = topic {
            if t as usize >= p.topics.len() {
                return Err(malformed(format!(
                    "topic index {t} is out of range ({} interned topics)",
                    p.topics.len()
                )));
            }
        }
    }
    Ok(())
}

/// Pass 1: loop structure and jump discipline.
fn structure(p: &Program) -> Result<Analysis, VerifyError> {
    let n = p.instrs.len();
    let mut counts = vec![0u32; n];
    let mut regions: Vec<Region> = Vec::with_capacity(n + 1);
    let mut stack: Vec<u32> = Vec::new();
    let at = |i: usize| p.render_instr(i);
    for (i, instr) in p.instrs.iter().enumerate() {
        match instr {
            Instr::Loop { count } => {
                // The `loop` itself executes once per entry: region excludes
                // its own loop.
                regions.push(Region(stack.clone()));
                if *count == 0 || *count > MAX_LOOP_COUNT {
                    return Err(VerifyError::BadLoopCount {
                        at: i,
                        instr: at(i),
                        count: *count,
                    });
                }
                stack.push(i as u32);
                if stack.len() > MAX_LOOP_DEPTH {
                    return Err(VerifyError::LoopTooDeep {
                        at: i,
                        instr: at(i),
                        depth: stack.len(),
                    });
                }
                counts[i] = *count;
            }
            Instr::EndLoop => {
                // The `endloop` executes on every iteration: region includes
                // its own loop.
                regions.push(Region(stack.clone()));
                if stack.pop().is_none() {
                    return Err(VerifyError::UnmatchedLoop {
                        at: i,
                        instr: at(i),
                    });
                }
            }
            _ => regions.push(Region(stack.clone())),
        }
    }
    if let Some(open) = stack.last() {
        let i = *open as usize;
        return Err(VerifyError::UnmatchedLoop {
            at: i,
            instr: at(i),
        });
    }
    regions.push(Region::default()); // the virtual exit point
    let analysis = Analysis { regions, counts };
    for (i, instr) in p.instrs.iter().enumerate() {
        let target = match instr {
            Instr::Jmp { target } | Instr::Jz { target, .. } | Instr::Jnz { target, .. } => *target,
            _ => continue,
        };
        if target as usize > n {
            return Err(VerifyError::JumpOutOfRange {
                at: i,
                instr: at(i),
                target,
                len: n,
            });
        }
        if target as usize <= i {
            return Err(VerifyError::UnboundedLoop {
                at: i,
                instr: at(i),
            });
        }
        if analysis.regions[target as usize] != analysis.regions[i] {
            return Err(VerifyError::JumpCrossesLoop {
                at: i,
                instr: at(i),
            });
        }
    }
    Ok(analysis)
}

/// Pass 2 (flow-insensitive): every topic access resolves to the declared
/// subscription/output lists.
fn topics(p: &Program) -> Result<(), VerifyError> {
    for (i, instr) in p.instrs.iter().enumerate() {
        let (topic, is_read) = match instr {
            Instr::LdF { topic, .. }
            | Instr::LdV { topic, .. }
            | Instr::LdPos { topic, .. }
            | Instr::LdVel { topic, .. }
            | Instr::LdPath { topic, .. } => (*topic, true),
            Instr::StF { topic, .. } | Instr::StV { topic, .. } => (*topic, false),
            _ => continue,
        };
        let name = p.topic(topic);
        if is_read && !p.subs.contains(name) {
            return Err(VerifyError::UndeclaredRead {
                at: i,
                instr: p.render_instr(i),
                topic: name.clone(),
            });
        }
        if !is_read && !p.outs.contains(name) {
            return Err(VerifyError::UndeclaredPublish {
                at: i,
                instr: p.render_instr(i),
                topic: name.clone(),
            });
        }
    }
    Ok(())
}

/// Pass 3: the worst-case executed-instruction count fits the budget.
/// Every instruction is weighted by the product of the static trip counts
/// of its enclosing loops (conditional skips only shorten execution, so
/// the straight-through weighting is a sound upper bound).
fn budget(p: &Program, a: &Analysis) -> Result<u64, VerifyError> {
    let mut worst: u64 = 0;
    for i in 0..p.instrs.len() {
        let mult = a.regions[i].0.iter().fold(1u64, |acc, l| {
            acc.saturating_mul(a.counts[*l as usize] as u64)
        });
        worst = worst.saturating_add(mult);
        if worst > p.budget as u64 {
            return Err(VerifyError::BudgetOverflow {
                at: i,
                instr: p.render_instr(i),
                worst_case: total_cost(p, a),
                budget: p.budget,
            });
        }
    }
    Ok(worst)
}

fn total_cost(p: &Program, a: &Analysis) -> u64 {
    (0..p.instrs.len())
        .map(|i| {
            a.regions[i].0.iter().fold(1u64, |acc, l| {
                acc.saturating_mul(a.counts[*l as usize] as u64)
            })
        })
        .fold(0u64, u64::saturating_add)
}

/// Pass 4: register dataflow — def-before-use, types and divisor intervals
/// — by a worklist fixpoint over per-instruction abstract states.
fn dataflow(p: &Program, a: &Analysis) -> Result<(), VerifyError> {
    let n = p.instrs.len();
    // State *entering* each instruction; index `n` is the exit point.
    let mut states: Vec<Option<AbsState>> = vec![None; n + 1];
    states[0] = Some([AbsVal::Undef; NUM_SCRATCH]);
    let mut worklist: VecDeque<usize> = VecDeque::from([0]);
    while let Some(i) = worklist.pop_front() {
        if i >= n {
            continue;
        }
        let state = states[i].expect("worklist entries have a recorded state");
        for (succ, next) in transfer(p, a, i, state)? {
            match &mut states[succ] {
                slot @ None => {
                    *slot = Some(next);
                    worklist.push_back(succ);
                }
                Some(old) => {
                    let mut changed = false;
                    for r in 0..NUM_SCRATCH {
                        let joined = join(old[r], next[r]);
                        if joined != old[r] {
                            old[r] = joined;
                            changed = true;
                        }
                    }
                    if changed {
                        worklist.push_back(succ);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Reads a register as a scalar, rejecting undefined/mismatched operands.
fn scalar(p: &Program, at: usize, st: &AbsState, r: Reg) -> Result<(f64, f64), VerifyError> {
    match st[r.0 as usize] {
        AbsVal::Scalar(lo, hi) => Ok((lo, hi)),
        other => Err(operand_error(p, at, r, Ty::Scalar, other)),
    }
}

/// Requires a register to hold the given (non-scalar) type.
fn expect(p: &Program, at: usize, st: &AbsState, r: Reg, ty: Ty) -> Result<(), VerifyError> {
    let ok = matches!(
        (st[r.0 as usize], ty),
        (AbsVal::Scalar(..), Ty::Scalar)
            | (AbsVal::Bool, Ty::Bool)
            | (AbsVal::Vec3, Ty::Vec3)
            | (AbsVal::Path, Ty::Path)
    );
    if ok {
        Ok(())
    } else {
        Err(operand_error(p, at, r, ty, st[r.0 as usize]))
    }
}

fn operand_error(p: &Program, at: usize, r: Reg, expected: Ty, found: AbsVal) -> VerifyError {
    if found == AbsVal::Undef {
        VerifyError::UseBeforeDef {
            at,
            instr: p.render_instr(at),
            reg: r.to_string(),
        }
    } else {
        VerifyError::TypeConfusion {
            at,
            instr: p.render_instr(at),
            reg: r.to_string(),
            expected,
            found: found.describe(),
        }
    }
}

/// The abstract transfer function of instruction `i`: checks operand
/// obligations and returns the successor program points with their states.
fn transfer(
    p: &Program,
    a: &Analysis,
    i: usize,
    mut st: AbsState,
) -> Result<Vec<(usize, AbsState)>, VerifyError> {
    let set = |st: &mut AbsState, rd: Reg, v: AbsVal| st[rd.0 as usize] = v;
    let mut succs = vec![i + 1];
    match &p.instrs[i] {
        Instr::Fconst { rd, imm } => set(&mut st, *rd, sane(*imm, *imm)),
        Instr::Vconst { rd, .. } => set(&mut st, *rd, AbsVal::Vec3),
        Instr::Mov { rd, ra } => {
            let v = st[ra.0 as usize];
            if matches!(v, AbsVal::Undef | AbsVal::Mixed) {
                return Err(operand_error(p, i, *ra, Ty::Scalar, v));
            }
            set(&mut st, *rd, v);
        }
        Instr::Gld { rd, .. } => set(&mut st, *rd, TOP),
        Instr::Gst { rs, .. } => {
            scalar(p, i, &st, *rs)?;
        }
        Instr::Fbin { op, rd, ra, rb } => {
            let (al, ah) = scalar(p, i, &st, *ra)?;
            let (bl, bh) = scalar(p, i, &st, *rb)?;
            if matches!(op, FOp::Div | FOp::Mod) && bl <= 0.0 && bh >= 0.0 {
                return Err(VerifyError::PossiblyZeroDivisor {
                    at: i,
                    instr: p.render_instr(i),
                    lo: bl,
                    hi: bh,
                });
            }
            let v = match op {
                FOp::Add => sane(al + bl, ah + bh),
                FOp::Sub => sane(al - bh, ah - bl),
                FOp::Mul => {
                    let c = [al * bl, al * bh, ah * bl, ah * bh];
                    if c.iter().any(|x| x.is_nan()) {
                        TOP
                    } else {
                        sane(
                            c.iter().copied().fold(f64::INFINITY, f64::min),
                            c.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                        )
                    }
                }
                FOp::Div => TOP,
                FOp::Mod => {
                    let m = bl.abs().max(bh.abs());
                    sane(-m, m)
                }
                FOp::Min => sane(al.min(bl), ah.min(bh)),
                FOp::Max => sane(al.max(bl), ah.max(bh)),
            };
            set(&mut st, *rd, v);
        }
        Instr::Fun { op, rd, ra } => {
            let (lo, hi) = scalar(p, i, &st, *ra)?;
            let v = match op {
                FUn::Neg => sane(-hi, -lo),
                FUn::Abs => {
                    let m = lo.abs().max(hi.abs());
                    if lo <= 0.0 && hi >= 0.0 {
                        sane(0.0, m)
                    } else {
                        sane(lo.abs().min(hi.abs()), m)
                    }
                }
                // The interpreter clamps negative inputs to 0 before the
                // square root, so the result is never NaN.
                FUn::Sqrt => sane(lo.max(0.0).sqrt(), hi.max(0.0).sqrt()),
            };
            set(&mut st, *rd, v);
        }
        Instr::Fcmp { rd, ra, rb, .. } => {
            scalar(p, i, &st, *ra)?;
            scalar(p, i, &st, *rb)?;
            set(&mut st, *rd, AbsVal::Bool);
        }
        Instr::Bbin { rd, ra, rb, .. } => {
            expect(p, i, &st, *ra, Ty::Bool)?;
            expect(p, i, &st, *rb, Ty::Bool)?;
            set(&mut st, *rd, AbsVal::Bool);
        }
        Instr::Bnot { rd, ra } => {
            expect(p, i, &st, *ra, Ty::Bool)?;
            set(&mut st, *rd, AbsVal::Bool);
        }
        Instr::Select { rd, rc, ra, rb } => {
            expect(p, i, &st, *rc, Ty::Bool)?;
            let va = st[ra.0 as usize];
            let vb = st[rb.0 as usize];
            let v = match (va, vb) {
                (AbsVal::Undef | AbsVal::Mixed, _) => {
                    return Err(operand_error(p, i, *ra, Ty::Scalar, va))
                }
                (_, AbsVal::Undef | AbsVal::Mixed) => {
                    return Err(operand_error(p, i, *rb, Ty::Scalar, vb))
                }
                (AbsVal::Scalar(l1, h1), AbsVal::Scalar(l2, h2)) => sane(l1.min(l2), h1.max(h2)),
                (AbsVal::Bool, AbsVal::Bool) => AbsVal::Bool,
                (AbsVal::Vec3, AbsVal::Vec3) => AbsVal::Vec3,
                (AbsVal::Path, AbsVal::Path) => AbsVal::Path,
                (va, vb) => {
                    return Err(VerifyError::TypeConfusion {
                        at: i,
                        instr: p.render_instr(i),
                        reg: rb.to_string(),
                        expected: match va {
                            AbsVal::Scalar(..) => Ty::Scalar,
                            AbsVal::Bool => Ty::Bool,
                            AbsVal::Vec3 => Ty::Vec3,
                            _ => Ty::Path,
                        },
                        found: vb.describe(),
                    })
                }
            };
            set(&mut st, *rd, v);
        }
        Instr::Vadd { rd, ra, rb } | Instr::Vsub { rd, ra, rb } => {
            expect(p, i, &st, *ra, Ty::Vec3)?;
            expect(p, i, &st, *rb, Ty::Vec3)?;
            set(&mut st, *rd, AbsVal::Vec3);
        }
        Instr::Vscale { rd, rv, rs } => {
            expect(p, i, &st, *rv, Ty::Vec3)?;
            scalar(p, i, &st, *rs)?;
            set(&mut st, *rd, AbsVal::Vec3);
        }
        Instr::Vdot { rd, ra, rb } => {
            expect(p, i, &st, *ra, Ty::Vec3)?;
            expect(p, i, &st, *rb, Ty::Vec3)?;
            set(&mut st, *rd, TOP);
        }
        Instr::Vnorm { rd, ra } => {
            expect(p, i, &st, *ra, Ty::Vec3)?;
            set(&mut st, *rd, AbsVal::Scalar(0.0, f64::INFINITY));
        }
        Instr::Vget { rd, ra, .. } => {
            expect(p, i, &st, *ra, Ty::Vec3)?;
            set(&mut st, *rd, TOP);
        }
        Instr::Vpack { rd, rx, ry, rz } => {
            scalar(p, i, &st, *rx)?;
            scalar(p, i, &st, *ry)?;
            scalar(p, i, &st, *rz)?;
            set(&mut st, *rd, AbsVal::Vec3);
        }
        Instr::Plen { rd, rp } => {
            expect(p, i, &st, *rp, Ty::Path)?;
            set(&mut st, *rd, AbsVal::Scalar(0.0, f64::INFINITY));
        }
        Instr::Pget { rd, rp, ri } => {
            expect(p, i, &st, *rp, Ty::Path)?;
            scalar(p, i, &st, *ri)?;
            set(&mut st, *rd, AbsVal::Vec3);
        }
        Instr::LdF { rd, .. } => set(&mut st, *rd, TOP),
        Instr::LdV { rd, .. } | Instr::LdPos { rd, .. } | Instr::LdVel { rd, .. } => {
            set(&mut st, *rd, AbsVal::Vec3)
        }
        Instr::LdPath { rd, .. } => set(&mut st, *rd, AbsVal::Path),
        Instr::StF { rs, .. } => {
            scalar(p, i, &st, *rs)?;
        }
        Instr::StV { rs, .. } => {
            expect(p, i, &st, *rs, Ty::Vec3)?;
        }
        Instr::Jmp { target } => succs = vec![*target as usize],
        Instr::Jz { rc, target } | Instr::Jnz { rc, target } => {
            expect(p, i, &st, *rc, Ty::Bool)?;
            succs = vec![i + 1, *target as usize];
        }
        Instr::Loop { .. } => {} // the body always executes (count ≥ 1)
        Instr::EndLoop => {
            // Back edge to the body start plus the loop exit.  The body
            // start is the instruction after the matching `loop`, i.e. the
            // innermost region entry + 1.
            let own = *a.regions[i]
                .0
                .last()
                .expect("structure() matched every endloop") as usize;
            succs = vec![own + 1, i + 1];
        }
        Instr::Halt => succs = vec![p.instrs.len()],
    }
    Ok(succs.into_iter().map(|s| (s, st)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::parse;

    fn check(body: &str) -> Result<VerifiedProgram, VerifyError> {
        let src = format!("node t\nperiod 20ms\nbudget 64\nsub in\npub out\n{body}");
        verify(parse(&src).expect("test programs parse"))
    }

    #[test]
    fn accepts_a_straight_line_program() {
        let v = check("ld.f r0, in, 1.0\nfconst r1, 2.0\nfmul r2, r0, r1\nst.f out, r2\nhalt\n")
            .unwrap();
        assert_eq!(v.worst_case_cost(), 5);
        assert_eq!(v.info().name, "t");
    }

    #[test]
    fn rejects_backward_jumps_as_unbounded_loops() {
        let e = check("top:\nfconst r0, 1.0\njmp top\n").unwrap_err();
        assert_eq!(e.kind(), "unbounded-loop");
        assert_eq!(e.at(), Some(1));
    }

    #[test]
    fn rejects_out_of_range_jumps() {
        let e = check("jmp 99\n").unwrap_err();
        assert!(matches!(e, VerifyError::JumpOutOfRange { target: 99, .. }));
    }

    #[test]
    fn rejects_jumps_crossing_loop_boundaries() {
        let e = check("loop 3\nfconst r0, 1.0\nflt r1, r0, r0\njz r1, 6\nendloop\nhalt\nhalt\n")
            .unwrap_err();
        assert_eq!(e.kind(), "jump-crosses-loop");
        // Jumping to the endloop (a `continue`) stays inside the region.
        check("loop 3\nfconst r0, 1.0\nflt r1, r0, r0\njz r1, 4\nendloop\nhalt\n").unwrap();
    }

    #[test]
    fn rejects_use_before_def_including_join_paths() {
        let e = check("fadd r0, r1, r2\n").unwrap_err();
        assert_eq!(e.kind(), "use-before-def");
        // r0 is defined on the fall-through path only: joining makes it
        // undefined again.
        let e = check(
            "ld.f r1, in, 0.0\nfconst r2, 0.0\nflt r3, r1, r2\n\
             jz r3, target\nfconst r0, 1.0\ntarget:\nst.f out, r0\n",
        )
        .unwrap_err();
        assert_eq!(e.kind(), "use-before-def");
        assert!(e.to_string().contains("r0"));
    }

    #[test]
    fn rejects_type_confusion() {
        let e = check("vconst r0, 1, 2, 3\nfconst r1, 1.0\nfadd r2, r0, r1\n").unwrap_err();
        assert_eq!(e.kind(), "type-confusion");
        assert!(e.to_string().contains("must be scalar"));
        // Mixing types across a join is also confusion at the use site.
        let e = check(
            "ld.f r1, in, 0.0\nfconst r2, 0.0\nflt r3, r1, r2\nfconst r0, 1.0\n\
             jz r3, merge\nvconst r0, 1, 2, 3\nmerge:\nfadd r4, r0, r0\n",
        )
        .unwrap_err();
        assert_eq!(e.kind(), "type-confusion");
        assert!(e.to_string().contains("mixed"));
    }

    #[test]
    fn rejects_possibly_zero_divisors_and_accepts_guarded_ones() {
        let e = check("ld.f r0, in, 1.0\nfconst r1, 1.0\nfdiv r2, r1, r0\n").unwrap_err();
        assert_eq!(e.kind(), "div-by-zero");
        // The guard idiom: clamp the divisor away from zero first.
        check(
            "ld.f r0, in, 1.0\nfconst r3, 0.001\nfmax r0, r0, r3\n\
             fconst r1, 1.0\nfdiv r2, r1, r0\nst.f out, r2\n",
        )
        .unwrap();
        // A sign-definite *negative* divisor is fine too.
        check(
            "ld.f r0, in, 1.0\nfconst r3, -0.001\nfmin r0, r0, r3\n\
             fconst r1, 1.0\nfdiv r2, r1, r0\nst.f out, r2\n",
        )
        .unwrap();
        // fmod shares the obligation.
        let e = check("ld.f r0, in, 1.0\nfconst r1, 1.0\nfmod r2, r1, r0\n").unwrap_err();
        assert_eq!(e.kind(), "div-by-zero");
    }

    #[test]
    fn widening_terminates_on_loops_but_keeps_the_divisor_proof() {
        // A loop accumulating into a global would never converge without
        // widening; the divisor guard inside the loop must still hold.
        let src = "node t\nperiod 20ms\nbudget 1024\nsub in\npub out\n\
             fconst r4, 0.001\nloop 100\ngld r0, g0\nfconst r1, 1.0\nfadd r0, r0, r1\n\
             gst g0, r0\nfmax r2, r0, r4\nfdiv r3, r1, r2\nendloop\nst.f out, r3\n";
        verify(parse(src).unwrap())
            .map_err(|e| panic!("expected acceptance, got {e}"))
            .unwrap();
    }

    #[test]
    fn rejects_undeclared_topic_accesses_even_in_dead_code() {
        let e = check("halt\nld.f r0, secret, 0.0\n").unwrap_err();
        assert_eq!(e.kind(), "undeclared-read");
        let e = check("fconst r0, 1.0\nst.f in, r0\n").unwrap_err();
        assert_eq!(e.kind(), "undeclared-publish");
        assert!(e.to_string().contains("in"));
    }

    #[test]
    fn rejects_budget_overflow_and_oversized_budgets() {
        let e = check("loop 100\nfconst r0, 1.0\nendloop\n").unwrap_err();
        let VerifyError::BudgetOverflow {
            worst_case, budget, ..
        } = e
        else {
            panic!("expected budget overflow, got {e}");
        };
        assert_eq!(budget, 64);
        assert_eq!(worst_case, 1 + 100 * 2); // loop + 100 × (body + endloop)
        let p = parse("node t\nperiod 1ms\nbudget 999999\nhalt\n").unwrap();
        assert_eq!(verify(p).unwrap_err().kind(), "budget-too-large");
    }

    #[test]
    fn rejects_malformed_loop_structure() {
        assert_eq!(check("endloop\n").unwrap_err().kind(), "unmatched-loop");
        assert_eq!(
            check("loop 3\nhalt\n").unwrap_err().kind(),
            "unmatched-loop"
        );
        assert_eq!(
            check("loop 0\nendloop\n").unwrap_err().kind(),
            "bad-loop-count"
        );
        let deep: String = "loop 2\n".repeat(9) + &"endloop\n".repeat(9);
        assert_eq!(check(&deep).unwrap_err().kind(), "loop-too-deep");
    }

    #[test]
    fn nested_loop_cost_multiplies() {
        let src = "node t\nperiod 20ms\nbudget 1000\nsub in\npub out\n\
                   loop 9\nloop 9\nfconst r0, 1.0\nendloop\nendloop\n";
        let v = verify(parse(src).unwrap()).unwrap();
        // loop(1) + 9 × (loop(1) + 9 × (body 1 + endloop 1) + endloop 1)
        assert_eq!(v.worst_case_cost(), 1 + 9 * (1 + 9 * 2 + 1));
    }

    #[test]
    fn select_requires_matching_arm_types() {
        let e = check(
            "fconst r0, 1.0\nvconst r1, 0, 0, 0\nfconst r2, 0.0\nflt r3, r0, r2\n\
             sel r4, r3, r0, r1\n",
        )
        .unwrap_err();
        assert_eq!(e.kind(), "type-confusion");
    }

    #[test]
    fn rejects_hand_built_programs_with_out_of_range_indices() {
        use crate::isa::GReg;
        use soter_core::time::Duration;

        let base = Program {
            name: "t".into(),
            period: Duration::from_millis(20),
            budget: 64,
            subs: Vec::new(),
            outs: Vec::new(),
            topics: Vec::new(),
            instrs: Vec::new(),
        };
        // The assembler cannot produce any of these; `verify` must reject
        // them structurally rather than let a later pass index out of range.
        let cases: Vec<(Instr, &str)> = vec![
            (
                Instr::Fconst {
                    rd: Reg(200),
                    imm: 1.0,
                },
                "register",
            ),
            (
                Instr::Gst {
                    g: GReg(99),
                    rs: Reg(0),
                },
                "global",
            ),
            (
                Instr::LdF {
                    rd: Reg(0),
                    topic: 7,
                    default: 0.0,
                },
                "topic",
            ),
        ];
        for (instr, what) in cases {
            let mut p = base.clone();
            p.instrs = vec![instr, Instr::Halt];
            let e = verify(p).unwrap_err();
            assert_eq!(e.kind(), "malformed-instruction", "case: {what}");
            assert_eq!(e.at(), Some(0));
            assert!(
                e.to_string().contains(what),
                "`{e}` should mention the out-of-range {what} index"
            );
        }
    }
}
