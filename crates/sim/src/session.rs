//! The simulation-session API: one builder, two machines, three labels.
//!
//! [`SimSession`] replaces the old `Machine::new` + mutate + `run` dance
//! with a builder that names every choice up front:
//!
//! ```
//! use sentinel_isa::{Insn, Reg};
//! use sentinel_prog::ProgramBuilder;
//! use sentinel_sim::{Engine, RunOutcome, SimConfig, SimSession};
//!
//! let mut b = ProgramBuilder::new("demo");
//! b.block("entry");
//! b.push(Insn::li(Reg::int(1), 41));
//! b.push(Insn::addi(Reg::int(1), Reg::int(1), 1));
//! b.push(Insn::halt());
//! let f = b.finish();
//!
//! let mut s = SimSession::for_function(&f)
//!     .config(SimConfig::default())
//!     .engine(Engine::Fast)
//!     .build();
//! assert_eq!(s.run().unwrap(), RunOutcome::Halted);
//! assert_eq!(s.reg(Reg::int(1)).as_i64(), 42);
//! ```
//!
//! [`SimSessionBuilder::build`] picks the machine once. Both machines
//! are loops over one machine state (registers, memory, store buffer,
//! statistics, profile, PC history, scoreboard), and every accessor
//! here reads that state, whichever machine holds it. The interpreter
//! walks the block graph instruction by instruction (the timing
//! reference) and is the only instrumented machine: it runs every
//! [`Engine::Interpreter`] session and every session with a trace sink
//! ([`SimSessionBuilder::sink`]) or [`SimConfig::collect_trace`],
//! whatever its label. Every other [`Engine::Fast`] (the default) or
//! [`Engine::Turbo`] session runs the compiled machine over a
//! [`TurboProgram`] decode. The labels stay distinct because job specs,
//! cache keys, and response bodies carry them, and
//! [`SimSession::engine`] reports the label asked for. The differential
//! suite and the seeded fuzzer hold the two machines to identical
//! outcomes, statistics, architectural state, profiles, and PC
//! histories.

use std::sync::Arc;

use sentinel_isa::{InsnId, Reg};
use sentinel_prog::profile::Profile;
use sentinel_prog::Function;
use sentinel_trace::TraceSink;

use crate::cache::DataCache;
use crate::except::{PcHistoryQueue, Trap};
use crate::machine::{Machine, Recovery, RunOutcome, SimConfig, SimError, TraceEvent};
use crate::memory::Memory;
use crate::regfile::TaggedValue;
use crate::state::MachineState;
use crate::stats::Stats;
use crate::turbo::{TurboMachine, TurboProgram};

/// Which execution engine a [`SimSession`] runs on.
///
/// Three labels over two machines: `Fast` and `Turbo` run the same
/// compiled machine, so every observable matches across them (and the
/// interpreter). The label is part of the job's identity — it appears
/// in spec hashes and serve response bodies — which is why both stay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The interpretive machine: walks the block graph directly. Slower,
    /// structurally simple — the differential-testing oracle.
    Interpreter,
    /// The compiled machine on a decode private to the session (built
    /// by [`SimSessionBuilder::build`] and dropped with the session).
    /// The default for measurement workloads.
    #[default]
    Fast,
    /// The compiled machine on a decode callers may share: pass a
    /// [`TurboProgram`] kept in a [`ProgramCache`](crate::ProgramCache)
    /// to [`SimSessionBuilder::program`] to share one decode across
    /// sessions.
    Turbo,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Interpreter => write!(f, "interpreter"),
            Engine::Fast => write!(f, "fast"),
            Engine::Turbo => write!(f, "turbo"),
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Engine, String> {
        match s {
            "interpreter" | "interp" => Ok(Engine::Interpreter),
            "fast" => Ok(Engine::Fast),
            "turbo" => Ok(Engine::Turbo),
            other => Err(format!(
                "unknown engine '{other}' (want interpreter|fast|turbo)"
            )),
        }
    }
}

/// Builder for a [`SimSession`]; see [`SimSession::for_function`].
pub struct SimSessionBuilder<'a> {
    func: &'a Function,
    config: SimConfig,
    engine: Engine,
    program: Option<Arc<TurboProgram>>,
    sink: Option<Box<dyn TraceSink>>,
}

impl<'a> SimSessionBuilder<'a> {
    /// Sets the simulator configuration (default: [`SimConfig::default`]).
    #[must_use]
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the execution engine (default: [`Engine::Fast`]).
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches a pipeline-event sink from the start of the run (the
    /// session then runs on the interpreter; see [`SimSession`]).
    #[must_use]
    pub fn sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Supplies a shared decode (selects [`Engine::Turbo`]; an
    /// instrumented session runs on the interpreter and ignores it). The
    /// program must have been decoded from this builder's function with
    /// the machine description the config will carry — callers reusing
    /// decodes through a [`ProgramCache`](crate::ProgramCache) key on
    /// exactly that pair.
    #[must_use]
    pub fn program(mut self, prog: Arc<TurboProgram>) -> Self {
        self.engine = Engine::Turbo;
        self.program = Some(prog);
        self
    }

    /// Constructs the session on its machine: the interpreter for
    /// [`Engine::Interpreter`] or an instrumented session, the compiled
    /// machine otherwise — decoding the function once unless a shared
    /// [`TurboProgram`] was supplied.
    pub fn build(self) -> SimSession<'a> {
        let instrumented = self.sink.is_some() || self.config.collect_trace;
        let inner = if self.engine == Engine::Interpreter || instrumented {
            let mut m = Machine::create(self.func, self.config);
            if let Some(sink) = self.sink {
                m.attach_sink(sink);
            }
            Inner::Interp(m)
        } else {
            let prog = self
                .program
                .unwrap_or_else(|| Arc::new(TurboProgram::new(self.func, &self.config.mdes)));
            Inner::Turbo(TurboMachine::new(prog, self.config))
        };
        SimSession {
            engine: self.engine,
            inner,
        }
    }
}

enum Inner<'a> {
    Interp(Machine<'a>),
    Turbo(TurboMachine),
}

/// A configured simulation over one function on one engine.
///
/// Both machines run over one machine state, and every accessor reads
/// it, whichever machine the session runs on.
///
/// # Examples
///
/// ```
/// use sentinel_sim::{Engine, SimConfig, RunOutcome, SimSession};
/// use sentinel_prog::examples::sum_kernel;
///
/// let func = sum_kernel(0x1000, 4, 0x2000);
/// let mut m = SimSession::for_function(&func)
///     .config(SimConfig::default())
///     .engine(Engine::Interpreter)
///     .build();
/// m.memory_mut().map_region(0x1000, 0x100);
/// m.memory_mut().map_region(0x2000, 8);
/// for i in 0..4 {
///     m.memory_mut().write_word(0x1000 + 8 * i, 10 + i).unwrap();
/// }
/// let outcome = m.run().unwrap();
/// assert_eq!(outcome, RunOutcome::Halted);
/// assert_eq!(m.memory().read_word(0x2000).unwrap(), 10 + 11 + 12 + 13);
/// ```
pub struct SimSession<'a> {
    engine: Engine,
    inner: Inner<'a>,
}

// The evaluation grid builds and runs each cell's session on a scoped
// worker thread, with or without a `Send` sink attached.
const _: () = {
    const fn send<T: Send>() {}
    send::<SimSession<'static>>();
};

impl<'a> SimSession<'a> {
    /// Starts building a session for `func`.
    pub fn for_function(func: &'a Function) -> SimSessionBuilder<'a> {
        SimSessionBuilder {
            func,
            config: SimConfig::default(),
            engine: Engine::default(),
            program: None,
            sink: None,
        }
    }

    /// The engine label this session was built with (an instrumented
    /// `fast` or `turbo` session reports its label while running on the
    /// interpreter).
    pub fn engine(&self) -> Engine {
        self.engine
    }

    fn state(&self) -> &MachineState {
        match &self.inner {
            Inner::Interp(m) => &m.st,
            Inner::Turbo(m) => &m.st,
        }
    }

    fn state_mut(&mut self) -> &mut MachineState {
        match &mut self.inner {
            Inner::Interp(m) => &mut m.st,
            Inner::Turbo(m) => &mut m.st,
        }
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// See [`SimError`]; architectural traps are a [`RunOutcome`], not an
    /// error.
    pub fn run(&mut self) -> Result<RunOutcome, SimError> {
        self.run_with_recovery(|_, _| Recovery::Abort)
    }

    /// Runs with an exception-recovery handler (paper §3.7). On a
    /// signaled trap the handler may repair state (it gets mutable memory
    /// access) and return [`Recovery::Resume`] to re-execute from the
    /// reported excepting instruction.
    ///
    /// # Errors
    ///
    /// In addition to [`SimSession::run`]'s errors:
    /// [`SimError::RecoveryLoop`] if resumes exceed the configured
    /// budget, and [`SimError::UnknownRecoveryPc`] if the reported PC is
    /// not an instruction of the program.
    pub fn run_with_recovery<H>(&mut self, handler: H) -> Result<RunOutcome, SimError>
    where
        H: FnMut(&Trap, &mut Memory) -> Recovery,
    {
        match &mut self.inner {
            Inner::Interp(m) => m.run_with_recovery(handler),
            Inner::Turbo(m) => m.run_with_recovery(handler),
        }
    }

    /// Sets an integer or fp register to raw bits (untagged).
    pub fn set_reg(&mut self, r: Reg, bits: u64) {
        self.state_mut().regs.write_clean(r, bits);
    }

    /// Sets an fp register from an `f64`.
    pub fn set_reg_f64(&mut self, r: Reg, v: f64) {
        self.state_mut().regs.write_clean(r, v.to_bits());
    }

    /// Sets a register's exception tag with stale contents (for §3.5
    /// uninitialized-register experiments).
    pub fn set_stale_tag(&mut self, r: Reg, pc: InsnId) {
        self.state_mut().regs.write(r, TaggedValue::excepting(pc));
    }

    /// Reads a register with its tag.
    ///
    /// # Panics
    ///
    /// Panics if `r` is past its bank (see [`SimSession::reg_sizes`]).
    pub fn reg(&self, r: Reg) -> TaggedValue {
        self.state().regs.read(r)
    }

    /// Register-bank sizes `(int, fp)` the session runs with: each bank
    /// is the larger of the machine description's and the registers the
    /// function names.
    pub fn reg_sizes(&self) -> (usize, usize) {
        self.state().regs.sizes()
    }

    /// The memory.
    pub fn memory(&self) -> &Memory {
        &self.state().mem
    }

    /// Mutable memory access (initialization, recovery handlers).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.state_mut().mem
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> &Stats {
        &self.state().stats
    }

    /// Execution profile of the run so far.
    pub fn profile(&self) -> &Profile {
        &self.state().profile
    }

    /// The PC history queue (fidelity checks).
    pub fn pc_history(&self) -> &PcHistoryQueue {
        &self.state().pcq
    }

    /// The execution trace (empty unless [`SimConfig::collect_trace`]).
    pub fn trace(&self) -> &[TraceEvent] {
        match &self.inner {
            Inner::Interp(m) => m.trace(),
            Inner::Turbo(_) => &[],
        }
    }

    /// The data cache, if one is configured.
    pub fn cache(&self) -> Option<&DataCache> {
        self.state().cache.as_ref()
    }

    /// Detaches the sink given to [`SimSessionBuilder::sink`] (`None`
    /// if there was none). Call [`TraceSink::finish`] on the result to
    /// render the trace.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        match &mut self.inner {
            Inner::Interp(m) => m.take_sink(),
            Inner::Turbo(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpeculationSemantics;
    use sentinel_isa::Insn;

    fn demo() -> Function {
        let mut b = sentinel_prog::ProgramBuilder::new("demo");
        b.block("entry");
        b.push(Insn::li(Reg::int(1), 0x1000));
        b.push(Insn::ld_w(Reg::int(2), Reg::int(1), 0).speculated());
        b.push(Insn::check_exception(Reg::int(2)));
        b.push(Insn::halt());
        b.finish()
    }

    #[test]
    fn builder_defaults_to_fast_engine() {
        let f = demo();
        let s = SimSession::for_function(&f).build();
        assert_eq!(s.engine(), Engine::Fast);
        assert!(matches!(s.inner, Inner::Turbo(_)));
    }

    #[test]
    fn both_machines_run_and_agree() {
        let f = demo();
        let mut outcomes = Vec::new();
        for engine in [Engine::Interpreter, Engine::Turbo] {
            let mut s = SimSession::for_function(&f).engine(engine).build();
            s.memory_mut().map_region(0x1000, 8);
            s.memory_mut().write_word(0x1000, 99).unwrap();
            let o = s.run().unwrap();
            outcomes.push((o, *s.stats(), s.reg(Reg::int(2)).data));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0].2, 99);
    }

    #[test]
    fn shared_program_reuses_one_decode() {
        let f = demo();
        let config = SimConfig::default();
        let prog = Arc::new(crate::TurboProgram::new(&f, &config.mdes));
        for _ in 0..2 {
            let mut s = SimSession::for_function(&f)
                .config(config.clone())
                .program(Arc::clone(&prog))
                .build();
            assert_eq!(s.engine(), Engine::Turbo);
            s.memory_mut().map_region(0x1000, 8);
            s.run().unwrap();
        }
        // The builder took shared references; both sessions ran the
        // same decode.
        assert_eq!(Arc::strong_count(&prog), 1);
    }

    #[test]
    fn config_and_sink_flow_through() {
        let f = demo();
        let cfg = SimConfig {
            semantics: SpeculationSemantics::SentinelTags,
            collect_trace: true,
            ..Default::default()
        };
        let mut s = SimSession::for_function(&f)
            .config(cfg)
            .engine(Engine::Fast)
            .sink(Box::new(sentinel_trace::CollectSink::default()))
            .build();
        s.memory_mut().map_region(0x1000, 8);
        s.run().unwrap();
        assert!(!s.trace().is_empty());
        let mut sink = s.take_sink().expect("sink attached via builder");
        assert_ne!(sink.finish(), "0 events");
    }

    #[test]
    fn instrumented_sessions_run_on_the_interpreter() {
        let f = demo();
        let traced = SimConfig {
            collect_trace: true,
            ..Default::default()
        };
        for engine in [Engine::Fast, Engine::Turbo] {
            let build = || SimSession::for_function(&f).engine(engine);
            let by_config = build().config(traced.clone()).build();
            let by_sink = build().sink(Box::new(sentinel_trace::NullSink)).build();
            for s in [&by_config, &by_sink] {
                assert!(matches!(s.inner, Inner::Interp(_)));
                assert_eq!(s.engine(), engine, "the label survives the routing");
            }
            let mut bare = build().build();
            assert!(matches!(bare.inner, Inner::Turbo(_)));
            assert!(bare.take_sink().is_none() && bare.trace().is_empty());
        }
    }
}
