//! The native engine: emitted C, actually compiled and executed.
//!
//! Both technique crates emit the paper's C output; this module closes
//! the loop at runtime. [`build_native`] compiles the chosen engine's
//! interpreted twin (through the one engine builder,
//! [`DefaultEngineFactory`]), emits its C kernel
//! (`codegen_c::emit_native`, a few translation units), compiles each
//! unit with the host C compiler (`cc -fPIC -O1 -c`, one `cc` per core
//! at most), links the objects (`cc -shared`), `dlopen`s the shared
//! object, and wraps both in a [`UnitDelaySimulator`] whose
//! `simulate_one_vector` is machine code.
//!
//! # Arena-pointer ABI
//!
//! Both techniques' kernels export one signature,
//! `simulate_one_vector(word *uds_a, const word *pi)`, and keep no
//! state: every arena word is a slot of the `uds_a` they are handed,
//! and `pi` holds the primary inputs as words. Inside, the kernel is a
//! run of part functions of whole netlist levels, spread over up to
//! four translation units, which the entry calls in order (see
//! [`uds_netlist::c_emit`]). The parts have hidden visibility, so the
//! entry calls them directly and only the entry is exported: this
//! module sees one symbol whatever the split. The authoritative state
//! is the interpreted twin's arena, and each vector passes that arena
//! to the kernel directly — no copy in or out, no lock. Clones,
//! seeding, final-value and history readback and checkpoint restores
//! all act on the twin, so one wrapper serves both techniques,
//! and two simulators sharing one loaded object never share state:
//! calls from any number of threads are independent.
//!
//! `-O1` rather than `-O2`: the arena form makes `cc` work harder than
//! the paper's statics did, and `-O2` buys no kernel speed over `-O1`
//! on these straight-line bodies, only set-up time.
//!
//! # Cold builds
//!
//! The unit cut is a function of the kernel alone (see
//! [`uds_netlist::c_emit::MAX_UNITS`]): c432 is one unit, c880 two,
//! c1908 and c6288 four, on any host. A cold build writes each unit,
//! after the shared prelude, to its own temp `.c` and runs at most
//! `min(units, available cores)` compilers at once. Every `cc` is
//! waited for before the build returns; when a unit fails, no further
//! unit starts, the error quotes that unit's stderr, and every temp
//! `.c`, `.o` and `.so` is removed, as it is after a success.
//!
//! # Artifact cache
//!
//! Compiled objects land in [`cache_dir`] (`$UDS_NATIVE_CACHE`, or
//! `uds-native-cache` under the system temp dir) named
//! `{netlist_hash:016x}-{flavor}-w{bits}-s{source:016x}.so`,
//! where the first hash is the same canonical-netlist FNV the serve LRU
//! keys on ([`crate::cache::netlist_hash`]) and `source` is an FNV-1a
//! of the emitted C, its unit cut and the `cc` flags: a change to the
//! emitter, its ABI, the cut or the flags names a new artifact, so a
//! stale object is never `dlopen`ed under a signature it was not built
//! for. A cold build that renames its object into place removes that
//! key's other `-s*.so` files, so the cache holds one object per
//! circuit × flavor × width rather than one per emitter version. The
//! name says nothing the emitted C does not decide: a parallel
//! engine that monitors every net emits the same C as one that does
//! not (its twin does the tracking), so both load one artifact, while a
//! monitored PC-set program emits different C and hashes to its own. A
//! fresh process finds the artifact on disk and skips `cc` entirely (a
//! warm build emits the kernel text once to hash it, and nothing
//! more); within a process an additional registry shares one loaded
//! library per path. Cache traffic is reported through the build probe
//! as the monotonic counters `native.cache.memory_hit`,
//! `native.cache.disk_hit`, and `native.cache.compile`.
//!
//! # Degradation
//!
//! Every toolchain problem — no `cc` on `PATH`, a compile error, a
//! `dlopen` failure — is a typed [`SimErrorKind::Toolchain`] (exit
//! code 8 in the CLI), which the guarded fallback chain treats like
//! any other compile failure: the run degrades to the interpreted
//! engines and still exits 0.

// SimError deliberately carries full context and only travels on cold
// failure paths; see guard.rs for the same trade.
#![allow(clippy::result_large_err)]

use uds_netlist::c_emit::{EmitError, NativeSource};
use uds_netlist::{Netlist, Probe, ResourceLimits};
use uds_parallel::{ParallelSim, Word};
use uds_pcset::PcSetSimulator;

pub(crate) use imp::wrap;

use crate::error::{SimError, SimErrorKind, SimPhase};
use crate::{DefaultEngineFactory, Engine, UnitDelaySimulator, WordWidth};

/// An interpreted twin whose program the native engine compiles: it
/// emits the kernel's C, names the artifact's flavor, and runs each
/// vector by handing its arena and input words to the kernel.
pub(crate) trait NativeTwin: UnitDelaySimulator + Clone + 'static {
    /// The kernel's `word`.
    type Word;

    /// The artifact-name flavor key.
    fn flavor(&self) -> String;

    /// The kernel's C, cut into translation units.
    fn emit_native(&self, netlist: &Netlist) -> Result<NativeSource, EmitError>;

    /// One vector with `kernel` in place of the interpreter.
    fn simulate_vector_with(
        &mut self,
        inputs: &[bool],
        kernel: impl FnOnce(&mut [Self::Word], &[Self::Word]),
    );
}

impl<W: Word> NativeTwin for ParallelSim<W> {
    type Word = W;

    fn flavor(&self) -> String {
        format!("par-{}", self.optimization().key())
    }

    fn emit_native(&self, netlist: &Netlist) -> Result<NativeSource, EmitError> {
        uds_parallel::codegen_c::emit_native(netlist, self)
    }

    fn simulate_vector_with(&mut self, inputs: &[bool], kernel: impl FnOnce(&mut [W], &[W])) {
        ParallelSim::simulate_vector_with(self, inputs, kernel);
    }
}

impl NativeTwin for PcSetSimulator {
    type Word = u64;

    fn flavor(&self) -> String {
        "pcset".to_owned()
    }

    fn emit_native(&self, netlist: &Netlist) -> Result<NativeSource, EmitError> {
        uds_pcset::codegen_c::emit_native(netlist, self)
    }

    fn simulate_vector_with(&mut self, inputs: &[bool], kernel: impl FnOnce(&mut [u64], &[u64])) {
        PcSetSimulator::simulate_vector_with(self, inputs, kernel);
    }
}

/// A toolchain failure attributed to the native engine.
pub(crate) fn toolchain_error(message: impl Into<String>) -> SimError {
    SimError::new(
        SimErrorKind::Toolchain {
            message: message.into(),
        },
        SimPhase::Compile,
    )
    .with_engine(Engine::Native)
}

/// Builds a native simulator for `flavor` (the engine whose emitted C
/// is compiled): [`Engine::PcSet`] or any parallel-family engine.
/// [`Engine::Native`] itself maps to the pt+trim parallel program —
/// the default chain head. `word` selects the parallel arena width;
/// the PC-set emitter is always 64-bit.
///
/// # Errors
///
/// Structural and budget failures surface exactly as the interpreted
/// twin would report them; toolchain failures (no compiler, compile
/// error, load error) are [`SimErrorKind::Toolchain`].
pub fn build_native(
    netlist: &Netlist,
    flavor: Engine,
    word: WordWidth,
    limits: &ResourceLimits,
    probe: &dyn Probe,
) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
    DefaultEngineFactory::with_word(word).compile(netlist, flavor, true, limits, probe)
}

/// `true` when the host C compiler (`$UDS_CC`, default `cc`) answers
/// `--version` — probed once per process. Tests and benches use this
/// to skip with a visible notice instead of failing on toolchain-free
/// hosts.
pub fn compiler_available() -> bool {
    imp::compiler_available()
}

/// The on-disk artifact cache directory: `$UDS_NATIVE_CACHE` when set,
/// otherwise `uds-native-cache` under the system temp dir.
pub fn cache_dir() -> std::path::PathBuf {
    match std::env::var_os("UDS_NATIVE_CACHE") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join("uds-native-cache"),
    }
}

/// Two tests here override `$UDS_CC` and `$UDS_NATIVE_CACHE`, which
/// every native build reads live: any test that builds a native engine
/// holds this so they cannot interleave.
#[cfg(test)]
pub(crate) fn env_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(unix)]
mod imp {
    use std::collections::HashMap;
    use std::ffi::CString;
    use std::io::Write as _;
    use std::num::NonZeroUsize;
    use std::os::raw::c_void;
    use std::path::{Path, PathBuf};
    use std::process::Command;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

    use uds_netlist::c_emit::NativeSource;
    use uds_netlist::{NetId, Netlist, Probe};

    use super::{cache_dir, toolchain_error, NativeTwin};
    use crate::cache::{fnv1a, fnv1a_continue, netlist_hash};
    use crate::error::SimError;
    use crate::UnitDelaySimulator;

    /// The raw loader interface. glibc ships `dlopen` in libc proper,
    /// so no link flags are needed; the declarations stay local to keep
    /// the workspace dependency-free.
    mod dl {
        use std::os::raw::{c_char, c_int, c_void};

        pub const RTLD_NOW: c_int = 2;

        extern "C" {
            pub fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
            pub fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
            pub fn dlerror() -> *mut c_char;
        }
    }

    /// The last loader error as text (clears the error state).
    fn dl_error() -> String {
        // Safety: dlerror returns a static, thread-local buffer or null.
        unsafe {
            let msg = dl::dlerror();
            if msg.is_null() {
                "unknown dlopen error".to_owned()
            } else {
                std::ffi::CStr::from_ptr(msg).to_string_lossy().into_owned()
            }
        }
    }

    /// One loaded shared object: the address of its exported
    /// `simulate_one_vector`. The handle is never `dlclose`d — the
    /// process-wide registry keeps every loaded artifact alive, which is
    /// exactly the amortization a long-lived daemon wants.
    pub struct NativeLib {
        simulate: *mut c_void,
    }

    // Safety: the pointer is an immutable code address, valid for the
    // life of the process (never `dlclose`d). The kernel behind it reads
    // and writes only the buffers each call passes in — the emitter
    // declares no statics — so concurrent calls on distinct arenas
    // share nothing.
    unsafe impl Send for NativeLib {}
    unsafe impl Sync for NativeLib {}

    fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
        mutex.lock().unwrap_or_else(PoisonError::into_inner)
    }

    impl NativeLib {
        fn open(path: &Path) -> Result<NativeLib, SimError> {
            use std::os::unix::ffi::OsStrExt;
            let cpath = CString::new(path.as_os_str().as_bytes())
                .map_err(|_| toolchain_error("artifact path contains a NUL byte"))?;
            // Safety: dlopen/dlsym on a path we just compiled (or an
            // artifact whose name pins the source and flags it was
            // compiled from); the symbol name is a NUL-terminated
            // literal.
            unsafe {
                dl::dlerror();
                let handle = dl::dlopen(cpath.as_ptr(), dl::RTLD_NOW);
                if handle.is_null() {
                    return Err(toolchain_error(format!(
                        "dlopen of {} failed: {}",
                        path.display(),
                        dl_error()
                    )));
                }
                let simulate = dl::dlsym(handle, c"simulate_one_vector".as_ptr());
                if simulate.is_null() {
                    return Err(toolchain_error(format!(
                        "{} does not export `simulate_one_vector`: {}",
                        path.display(),
                        dl_error()
                    )));
                }
                Ok(NativeLib { simulate })
            }
        }

        /// One vector, run in place on `arena` with input words `pi`.
        fn call<W>(&self, arena: &mut [W], pi: &[W]) {
            // Safety: the shared object was compiled from this twin's
            // program, so every slot it names is inside `arena` and it
            // reads exactly `pi.len()` inputs; the signature is the one
            // both emitters' `emit_native` export.
            unsafe {
                let sim: unsafe extern "C" fn(*mut W, *const W) =
                    std::mem::transmute(self.simulate);
                sim(arena.as_mut_ptr(), pi.as_ptr());
            }
        }
    }

    /// One loaded library per artifact path, process-wide, so each
    /// artifact is `dlopen`ed and resolved once.
    fn registry() -> &'static Mutex<HashMap<PathBuf, Arc<NativeLib>>> {
        static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Arc<NativeLib>>>> = OnceLock::new();
        REGISTRY.get_or_init(Mutex::default)
    }

    /// The `cc` flags that compile one translation unit to an object,
    /// and those that link the objects into the artifact. Both are part
    /// of the artifact name (see [`artifact_path`]).
    const CC_COMPILE: [&str; 3] = ["-fPIC", "-O1", "-c"];
    const CC_LINK: [&str; 1] = ["-shared"];

    fn compiler() -> String {
        std::env::var("UDS_CC").unwrap_or_else(|_| "cc".to_owned())
    }

    pub fn compiler_available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            Command::new(compiler())
                .arg("--version")
                .output()
                .map(|out| out.status.success())
                .unwrap_or(false)
        })
    }

    /// Runs `command` (a `cc` call doing `what`) to completion.
    fn run_cc(cc: &str, mut command: Command, what: &str) -> Result<(), SimError> {
        let output = command.output().map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                toolchain_error(format!(
                    "no C compiler: `{cc}` is not on PATH (set $UDS_CC to override)"
                ))
            } else {
                toolchain_error(format!("cannot run `{cc}`: {e}"))
            }
        })?;
        if output.status.success() {
            return Ok(());
        }
        let stderr = String::from_utf8_lossy(&output.stderr);
        let excerpt: Vec<&str> = stderr.lines().take(8).collect();
        Err(toolchain_error(format!(
            "`{cc}` failed {what} ({}): {}",
            output.status,
            excerpt.join("; ")
        )))
    }

    /// Compiles `source` into `dest` atomically. Each unit is written
    /// after the prelude to its own temp `.c` and compiled to a temp
    /// `.o`, with at most `min(units, cores)` compilers running at once;
    /// the objects are linked into a temp `.so`, which is `rename`d into
    /// place, so a concurrent process never observes a half-written
    /// artifact. Every `cc` is waited for before this returns, and every
    /// temp file is removed, whether the build succeeds or not. Once a
    /// unit fails no further unit starts, and the error quotes the first
    /// failure.
    fn compile_so(source: &NativeSource, dest: &Path) -> Result<(), SimError> {
        let dir = dest.parent().expect("artifact paths live in the cache dir");
        std::fs::create_dir_all(dir)
            .map_err(|e| toolchain_error(format!("cannot create {}: {e}", dir.display())))?;
        let stem = dest
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("artifact names are ascii");
        // Temp names are unique per build, across processes and within one.
        static BUILDS: AtomicU64 = AtomicU64::new(0);
        let build = BUILDS.fetch_add(1, Ordering::Relaxed);
        let tmp = format!(".{stem}.{}-{build}", std::process::id());
        let units: Vec<&str> = source.units().collect();
        let c_path = |k: usize| dir.join(format!("{tmp}.u{k}.c"));
        let o_path = |k: usize| dir.join(format!("{tmp}.u{k}.o"));
        let so_tmp = dir.join(format!("{tmp}.so"));
        let cc = compiler();

        let compile = |k: usize| -> Result<(), SimError> {
            let c = c_path(k);
            std::fs::File::create(&c)
                .and_then(|mut file| {
                    file.write_all(source.prelude().as_bytes())?;
                    file.write_all(units[k].as_bytes())
                })
                .map_err(|e| toolchain_error(format!("cannot write {}: {e}", c.display())))?;
            let mut command = Command::new(&cc);
            command.args(CC_COMPILE).arg("-o").arg(o_path(k)).arg(&c);
            let what = format!("on unit {k} of {}", units.len());
            run_cc(&cc, command, &what)
        };
        let next = AtomicUsize::new(0);
        let failure: Mutex<Option<SimError>> = Mutex::new(None);
        let worker = || loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= units.len() || lock(&failure).is_some() {
                break;
            }
            if let Err(e) = compile(k) {
                lock(&failure).get_or_insert(e);
                break;
            }
        };
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let jobs = units.len().min(cores);
        // The scope joins every worker, and each waits for its `cc`.
        std::thread::scope(|scope| {
            for _ in 1..jobs {
                scope.spawn(worker);
            }
            worker();
        });
        let built = match failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(e) => Err(e),
            None => {
                let mut command = Command::new(&cc);
                command.args(CC_LINK).arg("-o").arg(&so_tmp);
                command.args((0..units.len()).map(o_path));
                run_cc(&cc, command, "linking the kernel").and_then(|()| {
                    std::fs::rename(&so_tmp, dest).map_err(|e| {
                        toolchain_error(format!(
                            "cannot move artifact into {}: {e}",
                            dest.display()
                        ))
                    })?;
                    remove_stale_siblings(dest);
                    Ok(())
                })
            }
        };
        for k in 0..units.len() {
            let _ = std::fs::remove_file(c_path(k));
            let _ = std::fs::remove_file(o_path(k));
        }
        let _ = std::fs::remove_file(&so_tmp);
        built
    }

    /// Removes the artifacts that share `dest`'s circuit, flavor and
    /// width but not its tag (`{hash}-{flavor}-w{bits}-s*.so`): objects
    /// an earlier emitter or flag set built, which no build of this one
    /// names again. The cache then holds one object per key. A process
    /// that already loaded a removed object keeps its mapping.
    fn remove_stale_siblings(dest: &Path) {
        let (Some(dir), Some(name)) = (dest.parent(), dest.file_name().and_then(|n| n.to_str()))
        else {
            return;
        };
        let Some(key) = name.rfind("-s").map(|tag| &name[..tag + 2]) else {
            return;
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let file = entry.file_name();
            let stale = file.to_str().is_some_and(|file| {
                file != name
                    && file
                        .strip_prefix(key)
                        .and_then(|rest| rest.strip_suffix(".so"))
                        .is_some_and(|tag| {
                            tag.len() == 16 && tag.bytes().all(|b| b.is_ascii_hexdigit())
                        })
            });
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// The loaded library for `path`, from (in order) the in-process
    /// registry, the on-disk artifact cache, or a fresh `cc` run over
    /// `source`. Reports which tier answered through `probe`.
    fn get_or_load(
        path: &Path,
        source: &NativeSource,
        probe: &dyn Probe,
    ) -> Result<Arc<NativeLib>, SimError> {
        // The registry lock is held across compile: a daemon taking
        // many concurrent requests for one netlist must run `cc` once,
        // not once per worker.
        let mut libs = lock(registry());
        if let Some(lib) = libs.get(path) {
            probe.count("native.cache.memory_hit", 1);
            return Ok(Arc::clone(lib));
        }
        if path.exists() {
            probe.count("native.cache.disk_hit", 1);
        } else {
            compile_so(source, path)?;
            probe.count("native.cache.compile", 1);
        }
        let lib = Arc::new(NativeLib::open(path)?);
        libs.insert(path.to_path_buf(), Arc::clone(&lib));
        Ok(lib)
    }

    /// Where the artifact for `source` lives. The trailing tag hashes
    /// everything `cc` sees (the emitted C and where its units begin)
    /// and the compile and link flags, so an object built by another
    /// emitter version, unit cut or flag set is never found under it.
    pub(super) fn artifact_path(
        hash: u64,
        flavor: &str,
        bits: u32,
        source: &NativeSource,
    ) -> PathBuf {
        let tag = fnv1a(source.text().as_bytes());
        let tag = source.unit_starts().iter().fold(tag, |h, &start| {
            fnv1a_continue(h, &(start as u64).to_le_bytes())
        });
        let tag = CC_COMPILE
            .iter()
            .chain(&CC_LINK)
            .fold(tag, |h, flag| fnv1a_continue(h, flag.as_bytes()));
        cache_dir().join(format!("{hash:016x}-{flavor}-w{bits}-s{tag:016x}.so"))
    }

    /// A twin + its compiled shared object.
    #[derive(Clone)]
    struct NativeSim<T> {
        twin: T,
        lib: Arc<NativeLib>,
    }

    impl<T: NativeTwin> UnitDelaySimulator for NativeSim<T> {
        fn engine_name(&self) -> &'static str {
            "native"
        }

        fn simulate_vector(&mut self, inputs: &[bool]) {
            let lib = &self.lib;
            self.twin
                .simulate_vector_with(inputs, |arena, pi| lib.call(arena, pi));
        }

        fn final_value(&self, net: NetId) -> bool {
            self.twin.final_value(net)
        }

        fn history(&self, net: NetId) -> Option<Vec<bool>> {
            self.twin.history(net)
        }

        fn depth(&self) -> u32 {
            self.twin.depth()
        }

        fn seed_stable(&mut self, stable: &[bool]) {
            self.twin.seed_stable(stable);
        }

        fn clone_box(&self) -> Box<dyn UnitDelaySimulator> {
            Box::new(self.clone())
        }

        fn for_each_toggle(&self, net: NetId, visit: &mut dyn FnMut(u32)) -> Option<u32> {
            self.twin.for_each_toggle(net, visit)
        }

        fn simulate_vector_leveled(
            &mut self,
            inputs: &[bool],
            profile: &mut uds_netlist::LevelProfile,
        ) {
            // Per-level attribution needs the segmented interpreter, so
            // the profiled path runs the twin (same program, same
            // state) instead of the opaque machine-code loop. Hotspot
            // reports for `native` therefore describe the interpreted
            // twin's cost shape — which shares the native code's
            // per-level structure, just not its constant factor.
            self.twin.simulate_vector_leveled(inputs, profile);
        }

        fn level_static_profile(&self) -> Option<uds_netlist::LevelProfile> {
            self.twin.level_static_profile()
        }
    }

    /// Wraps a compiled `twin` in its native simulator: emits the C,
    /// then loads the artifact (compiling it on a cache miss).
    pub fn wrap<T: NativeTwin>(
        netlist: &Netlist,
        twin: T,
        probe: &dyn Probe,
    ) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
        let source = twin
            .emit_native(netlist)
            .map_err(|e| toolchain_error(format!("emit: {e}")))?;
        let bits = 8 * std::mem::size_of::<T::Word>() as u32;
        let path = artifact_path(netlist_hash(netlist), &twin.flavor(), bits, &source);
        let lib = get_or_load(&path, &source, probe)?;
        Ok(Box::new(NativeSim { twin, lib }))
    }
}

#[cfg(not(unix))]
mod imp {
    use uds_netlist::{Netlist, Probe};

    use super::{toolchain_error, NativeTwin};
    use crate::error::SimError;
    use crate::UnitDelaySimulator;

    pub fn wrap<T: NativeTwin>(
        _netlist: &Netlist,
        _twin: T,
        _probe: &dyn Probe,
    ) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
        Err(toolchain_error(
            "runtime loading of compiled C requires a Unix host",
        ))
    }

    pub fn compiler_available() -> bool {
        false
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::guard::EngineFactory;
    use crate::vectors::RandomVectors;
    use crate::{GuardedSimulator, TracedEventSim};
    use uds_netlist::generators::iscas::{c17, Iscas85};
    use uds_netlist::generators::random::{layered, LayeredConfig};
    use uds_netlist::NoopProbe;

    fn skip_notice() -> bool {
        if compiler_available() {
            return false;
        }
        eprintln!("SKIP: no C compiler on PATH; native-engine test not exercised");
        true
    }

    #[test]
    fn native_matches_the_baseline_on_c17() {
        let _env = env_lock();
        if skip_notice() {
            return;
        }
        let nl = c17();
        let mut native = build_native(
            &nl,
            Engine::Native,
            WordWidth::W32,
            &ResourceLimits::unlimited(),
            &NoopProbe,
        )
        .unwrap();
        let mut baseline = TracedEventSim::new(&nl).unwrap();
        for pattern in 0u32..32 {
            let inputs: Vec<bool> = (0..5).map(|i| pattern >> i & 1 != 0).collect();
            native.simulate_vector(&inputs);
            crate::UnitDelaySimulator::simulate_vector(&mut baseline, &inputs);
            for &po in nl.primary_outputs() {
                assert_eq!(
                    native.final_value(po),
                    baseline.final_value(po),
                    "native diverged on {pattern:05b}"
                );
            }
        }
    }

    #[test]
    fn missing_compiler_is_a_typed_toolchain_error() {
        // Point $UDS_CC at a nonexistent binary via a scoped override:
        // the error must be the toolchain class, never a panic. The
        // artifact cache would mask the compile step, so use a unique
        // cache dir.
        let _env = env_lock();
        if std::env::var_os("UDS_CC").is_some() {
            eprintln!("SKIP: $UDS_CC is set; not overriding the toolchain");
            return;
        }
        let dir = std::env::temp_dir().join(format!("uds-native-missing-{}", std::process::id()));
        std::env::set_var("UDS_NATIVE_CACHE", &dir);
        std::env::set_var("UDS_CC", "uds-no-such-compiler");
        let result = build_native(
            &c17(),
            Engine::Native,
            WordWidth::W64,
            &ResourceLimits::unlimited(),
            &NoopProbe,
        );
        std::env::remove_var("UDS_CC");
        std::env::remove_var("UDS_NATIVE_CACHE");
        let _ = std::fs::remove_dir_all(&dir);
        let err = match result {
            Ok(_) => panic!("a missing compiler cannot build"),
            Err(err) => err,
        };
        assert_eq!(err.class(), crate::FailureClass::Toolchain);
        assert!(err.to_string().contains("uds-no-such-compiler"), "{err}");
    }

    #[test]
    fn the_artifact_name_tracks_the_emitted_source() {
        // Any change to the emitted C, to its unit cut or to the `cc`
        // flags (all folded into one tag) must move the artifact, so a
        // stale object built for another kernel ABI is never `dlopen`ed
        // under the new one. The same kernel, emitted again, names the
        // same artifact: the cut depends on the kernel alone.
        let name = |source: &NativeSource| {
            let path = imp::artifact_path(0x1990, "par-pt-trim", 32, source);
            path.file_name().unwrap().to_str().unwrap().to_owned()
        };
        let pt_trim = uds_parallel::Optimization::PathTracingTrimming;
        let emit = |nl: &Netlist| {
            let sim = uds_parallel::ParallelSimulator::compile(nl, pt_trim).unwrap();
            sim.emit_native(nl).unwrap()
        };
        let (c17, c880) = (c17(), Iscas85::C880.build());
        let multi = emit(&c880);
        assert!(multi.units().count() > 1, "c880 is cut into units");
        let par = name(&emit(&c17));
        assert_eq!(par, name(&emit(&c17)));
        assert_eq!(name(&multi), name(&emit(&c880)));
        let pcset = PcSetSimulator::compile(&c17).unwrap().emit_native(&c17);
        let names = [par, name(&multi), name(&pcset.unwrap())];
        for (k, file) in names.iter().enumerate() {
            assert!(!names[..k].contains(file), "{names:?}");
            let tag = file
                .strip_prefix("0000000000001990-par-pt-trim-w32-s")
                .and_then(|rest| rest.strip_suffix(".so"))
                .unwrap_or_else(|| panic!("unexpected artifact name {file}"));
            assert_eq!(tag.len(), 16, "{file}");
            assert!(tag.bytes().all(|b| b.is_ascii_hexdigit()), "{file}");
        }
    }

    /// The files in `dir` that a build leaves behind: C sources, objects
    /// and shared objects, finished or not.
    fn build_files(dir: &std::path::Path) -> Vec<String> {
        let mut files: Vec<String> = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
                    .filter(|name| [".c", ".o", ".so"].iter().any(|ext| name.ends_with(ext)))
                    .collect()
            })
            .unwrap_or_default();
        files.sort();
        files
    }

    #[test]
    fn a_failing_unit_fails_the_build_and_leaves_nothing_behind() {
        // `$UDS_CC` refuses unit 1 of c880's two. The build must wait for
        // unit 0's compiler, remove every temp file, and report the
        // refusal as a toolchain error; the real `cc` then builds the
        // same artifact.
        let _env = env_lock();
        if skip_notice() {
            return;
        }
        if std::env::var_os("UDS_CC").is_some() {
            eprintln!("SKIP: $UDS_CC is set; not overriding the toolchain");
            return;
        }
        let root = std::env::temp_dir().join(format!("uds-native-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (bin, cache) = (root.join("bin"), root.join("cache"));
        std::fs::create_dir_all(&bin).unwrap();
        let script = bin.join("cc-refusing-unit-1");
        std::fs::write(
            &script,
            "#!/bin/sh\nfor arg in \"$@\"; do\n  case \"$arg\" in\n    *.u1.c) echo \"refusing $arg\" >&2; exit 1 ;;\n  esac\ndone\nexec cc \"$@\"\n",
        )
        .unwrap();
        {
            use std::os::unix::fs::PermissionsExt;
            std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
        }
        // A process forked elsewhere in this test binary while the script
        // was open for writing holds it until its own exec: wait that out
        // (ETXTBSY) before the build runs it.
        for _ in 0..100 {
            match std::process::Command::new(&script)
                .arg("--version")
                .output()
            {
                Err(e) if e.raw_os_error() == Some(26) => {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                _ => break,
            }
        }
        let nl = Iscas85::C880.build();
        let build = |probe: &dyn Probe| {
            build_native(
                &nl,
                Engine::Native,
                WordWidth::W64,
                &ResourceLimits::unlimited(),
                probe,
            )
        };
        std::env::set_var("UDS_NATIVE_CACHE", &cache);
        std::env::set_var("UDS_CC", &script);
        let failed = build(&NoopProbe);
        std::env::remove_var("UDS_CC");
        let left = build_files(&cache);
        let telemetry = crate::Telemetry::new();
        let rebuilt = build(&telemetry);
        let built = build_files(&cache);
        std::env::remove_var("UDS_NATIVE_CACHE");
        let _ = std::fs::remove_dir_all(&root);

        let err = match failed {
            Ok(_) => panic!("a refused unit cannot build"),
            Err(err) => err,
        };
        assert_eq!(err.class(), crate::FailureClass::Toolchain);
        let message = err.to_string();
        assert!(message.contains("on unit 1 of 2"), "{message}");
        assert!(
            message.contains("refusing "),
            "quotes the unit's stderr: {message}"
        );
        assert_eq!(
            left,
            Vec::<String>::new(),
            "temp files survived a failed build"
        );
        rebuilt.unwrap_or_else(|e| panic!("the real `cc` builds: {e}"));
        assert_eq!(telemetry.counter("native.cache.compile"), 1);
        assert_eq!(built.len(), 1, "{built:?}");
        assert!(
            built[0].ends_with(".so") && !built[0].starts_with('.'),
            "{built:?}"
        );
    }

    #[test]
    fn a_fresh_build_removes_only_its_own_stale_siblings() {
        // An earlier emitter's object for the same circuit, flavor and
        // width goes; the other width's and the other flavor's stay.
        let _env = env_lock();
        if skip_notice() {
            return;
        }
        let dir = std::env::temp_dir().join(format!("uds-native-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let nl = c17();
        let hash = crate::cache::netlist_hash(&nl);
        let stale = format!("{hash:016x}-par-pt-trim-w32-s0123456789abcdef.so");
        let kept = [
            format!("{hash:016x}-par-pt-trim-w64-s0123456789abcdef.so"),
            format!("{hash:016x}-pcset-w32-s0123456789abcdef.so"),
        ];
        for file in kept.iter().chain([&stale]) {
            std::fs::write(dir.join(file), b"an earlier build").unwrap();
        }
        std::env::set_var("UDS_NATIVE_CACHE", &dir);
        let built = build_native(
            &nl,
            Engine::Native,
            WordWidth::W32,
            &ResourceLimits::unlimited(),
            &NoopProbe,
        );
        std::env::remove_var("UDS_NATIVE_CACHE");
        let files = build_files(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        built.unwrap();
        assert_eq!(files.len(), 3, "{files:?}");
        assert!(!files.contains(&stale), "{files:?}");
        assert!(kept.iter().all(|file| files.contains(file)), "{files:?}");
        assert!(
            files.iter().any(|file| file.contains("-par-pt-trim-w32-s")),
            "{files:?}"
        );
    }

    #[test]
    fn two_threads_building_one_artifact_share_one_object() {
        // Two builds of one multi-unit kernel into an empty cache, released
        // together: both load a working kernel, and the cache ends with
        // the one finished artifact and no temp file.
        let _env = env_lock();
        if skip_notice() {
            return;
        }
        let dir = std::env::temp_dir().join(format!("uds-native-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("UDS_NATIVE_CACHE", &dir);
        let nl = Iscas85::C880.build();
        let barrier = std::sync::Barrier::new(2);
        let built: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        build_native(
                            &nl,
                            Engine::Native,
                            WordWidth::W64,
                            &ResourceLimits::unlimited(),
                            &NoopProbe,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        std::env::remove_var("UDS_NATIVE_CACHE");
        let files = build_files(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(files.len(), 1, "{files:?}");
        assert!(!files[0].starts_with('.'), "{files:?}");
        let width = nl.primary_inputs().len();
        for native in built {
            let native = native.unwrap_or_else(|e| panic!("both builds load: {e}"));
            let baseline = Box::new(TracedEventSim::new(&nl).unwrap());
            let stimulus = RandomVectors::new(width, 880).take(32);
            crate::crosscheck::run(&nl, &mut [baseline, native], stimulus)
                .unwrap_or_else(|e| panic!("native diverged from the baseline: {e}"));
        }
    }

    #[test]
    fn an_artifact_under_the_pre_tag_name_is_never_loaded() {
        // Before the arena-pointer ABI, artifacts were named
        // `{hash}-{flavor}-w{bits}.so`. Plant a file there that cannot be
        // loaded: the build must compile afresh and run exact rows.
        let _env = env_lock();
        if skip_notice() {
            return;
        }
        let dir = std::env::temp_dir().join(format!("uds-native-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let nl = c17();
        let planted = format!(
            "{:016x}-par-pt-trim-w32.so",
            crate::cache::netlist_hash(&nl)
        );
        std::fs::write(dir.join(planted), b"not an object built for this ABI").unwrap();

        std::env::set_var("UDS_NATIVE_CACHE", &dir);
        let telemetry = crate::Telemetry::new();
        let built = build_native(
            &nl,
            Engine::Native,
            WordWidth::W32,
            &ResourceLimits::unlimited(),
            &telemetry,
        );
        std::env::remove_var("UDS_NATIVE_CACHE");
        let native = built.unwrap();
        assert_eq!(telemetry.counter("native.cache.compile"), 1);
        assert_eq!(telemetry.counter("native.cache.disk_hit"), 0);
        let baseline = Box::new(TracedEventSim::new(&nl).unwrap());
        let stimulus = crate::vectors::RandomVectors::new(5, 1990).take(64);
        crate::crosscheck::run(&nl, &mut [baseline, native], stimulus)
            .unwrap_or_else(|e| panic!("native diverged from the baseline: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_monitored_parallel_engine_loads_the_unmonitored_artifact() {
        // Monitoring lives in the interpreted twin; the emitted C is the
        // same, so the monitored build must hit the loaded object
        // instead of running `cc` on it a second time.
        let _env = env_lock();
        if skip_notice() {
            return;
        }
        let dir = std::env::temp_dir().join(format!("uds-native-mon-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("UDS_NATIVE_CACHE", &dir);
        let nl = c17();
        let engine = Engine::ParallelPathTracingTrimming;
        let limits = ResourceLimits::unlimited();
        let (plain, monitored) = (crate::Telemetry::new(), crate::Telemetry::new());
        let first = DefaultEngineFactory::with_word(WordWidth::W64)
            .compile(&nl, engine, true, &limits, &plain);
        let second = DefaultEngineFactory {
            word: WordWidth::W64,
            monitor_all: true,
        }
        .compile(&nl, engine, true, &limits, &monitored);
        std::env::remove_var("UDS_NATIVE_CACHE");
        let _ = std::fs::remove_dir_all(&dir);
        first.unwrap();
        let second = second.unwrap();
        assert!(nl.net_ids().all(|net| second.history(net).is_some()));
        assert_eq!(plain.counter("native.cache.compile"), 1);
        assert_eq!(monitored.counter("native.cache.memory_hit"), 1);
        assert_eq!(monitored.counter("native.cache.compile"), 0);
    }

    /// Builds every chain entry as the all-nets-monitored native engine of
    /// one flavor, so a guard over it keeps every net's history.
    #[derive(Clone, Copy)]
    struct NativeFlavor {
        flavor: Engine,
        word: WordWidth,
    }

    impl EngineFactory for NativeFlavor {
        fn build(
            &self,
            netlist: &Netlist,
            _engine: Engine,
            limits: &ResourceLimits,
            probe: &dyn Probe,
        ) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
            let factory = DefaultEngineFactory {
                word: self.word,
                monitor_all: true,
            };
            factory.compile(netlist, self.flavor, true, limits, probe)
        }

        fn clone_box(&self) -> Box<dyn EngineFactory> {
            Box::new(*self)
        }
    }

    #[test]
    fn native_forks_run_concurrently_on_one_loaded_object() {
        // Forks of one native guard share one loaded kernel and nothing
        // else: each call runs on its own fork's arena, with no lock. Two
        // threads with different stimulus, released together, must each
        // match the event-driven baseline row for row and history for
        // history. The PC-set stream is always 64-bit, so it runs once.
        let _env = env_lock();
        if skip_notice() {
            return;
        }
        let mut deep = LayeredConfig::new("batch-prop", 220, 40);
        deep.primary_inputs = 8;
        deep.seed = 0xBA7C;
        deep.locality = 0.4;
        deep.xor_fraction = 0.25;
        for nl in [layered(&deep).unwrap(), Iscas85::C432.build()] {
            let width = nl.primary_inputs().len();
            let prefix: Vec<Vec<bool>> = RandomVectors::new(width, 0x0F0F).take(8).collect();
            for (flavor, word) in [
                (Engine::ParallelPathTracingTrimming, WordWidth::W32),
                (Engine::ParallelPathTracingTrimming, WordWidth::W64),
                (Engine::PcSet, WordWidth::W64),
            ] {
                let case = format!("{} {flavor} w{}", nl.name(), word.bits());
                let factory = Box::new(NativeFlavor { flavor, word });
                let mut prototype = GuardedSimulator::with_factory(
                    &nl,
                    ResourceLimits::production(),
                    &[Engine::Native],
                    factory,
                )
                .unwrap();
                // Fork mid-run, so the forks start from a retained state.
                for vector in &prefix {
                    prototype.simulate_vector(vector).unwrap();
                }
                let barrier = std::sync::Barrier::new(2);
                std::thread::scope(|scope| {
                    for seed in [0xA11CE, 0xB0B] {
                        let (mut fork, nl, prefix, barrier, case) =
                            (prototype.fork(), &nl, &prefix, &barrier, &case);
                        scope.spawn(move || {
                            let mut baseline = TracedEventSim::new(nl).unwrap();
                            for vector in prefix {
                                UnitDelaySimulator::simulate_vector(&mut baseline, vector);
                            }
                            barrier.wait();
                            for (index, vector) in
                                RandomVectors::new(width, seed).take(300).enumerate()
                            {
                                fork.simulate_vector(&vector).unwrap();
                                UnitDelaySimulator::simulate_vector(&mut baseline, &vector);
                                assert_eq!(fork.active_engine(), Engine::Native, "{case}");
                                for net in nl.net_ids() {
                                    let history = fork.history(net);
                                    assert!(history.is_some(), "{case}: every net is monitored");
                                    assert_eq!(
                                        history,
                                        baseline.history(net),
                                        "{case} seed {seed:#x}: vector {index}, net {}",
                                        nl.net_name(net)
                                    );
                                    assert_eq!(fork.final_value(net), baseline.final_value(net));
                                }
                            }
                        });
                    }
                });
            }
        }
    }
}
