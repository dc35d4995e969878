//! The declarative [`Scenario`] specification.
//!
//! A scenario is a plain-data description of one mission of the SOTER drone
//! case study: workspace geometry, mission profile, protection level,
//! advanced-controller choice (including fault injection), environment
//! models (wind, battery), scheduling jitter, horizon and seed.  It compiles
//! down to the existing [`DroneStackConfig`] / stack-building machinery of
//! `soter-drone`, so anything expressible with the hand-written experiment
//! drivers is expressible as a `Scenario` — and conversely, every driver of
//! the paper's evaluation is now a named scenario in [`crate::catalog`].
//!
//! Scenarios are `Clone + Send + Sync` values: the [`crate::campaign`]
//! runner fans them out across seeds on a thread pool, and the
//! [`crate::golden`] facility pins their digests as regression tests.

use soter_core::rta::FilterKind;
use soter_core::time::Duration;
use soter_drone::stack::{AdvancedKind, DroneStackConfig, Protection};
use soter_plan::surveillance::TargetPolicy;
use soter_runtime::jitter::JitterModel;
use soter_runtime::schedule::JitterSchedule;
use soter_sim::battery::BatteryModel;
use soter_sim::geometry::Aabb;
use soter_sim::vec3::Vec3;
use soter_sim::wind::WindModel;
use soter_sim::world::Workspace;

/// Workspace geometry of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkspaceSpec {
    /// The `g1..g4` corner-cut course of Fig. 5 / Fig. 12a.
    CornerCutCourse,
    /// The city-block surveillance workspace of Fig. 12b-c / Sec. V-D.
    CityBlock,
    /// The walled single-street corridor used by the contested-corridor
    /// airspace scenarios.
    ContestedCorridor,
    /// A custom axis-aligned workspace.
    Custom {
        /// Two opposite corners of the workspace bounds.
        bounds: (Vec3, Vec3),
        /// Obstacles, each as two opposite corners.
        obstacles: Vec<(Vec3, Vec3)>,
        /// Robot collision radius (metres).
        robot_radius: f64,
        /// Surveillance/circuit waypoints; must not be empty (the first
        /// point doubles as the default start position).
        surveillance_points: Vec<Vec3>,
    },
}

impl WorkspaceSpec {
    /// Materialises the workspace.
    ///
    /// # Panics
    ///
    /// Panics if a custom spec has no surveillance points.
    pub fn build(&self) -> Workspace {
        match self {
            WorkspaceSpec::CornerCutCourse => Workspace::corner_cut_course(),
            WorkspaceSpec::CityBlock => Workspace::city_block(),
            WorkspaceSpec::ContestedCorridor => Workspace::contested_corridor(),
            WorkspaceSpec::Custom {
                bounds,
                obstacles,
                robot_radius,
                surveillance_points,
            } => {
                assert!(
                    !surveillance_points.is_empty(),
                    "a custom workspace needs at least one surveillance point"
                );
                let mut ws = Workspace::new(
                    Aabb::new(bounds.0, bounds.1),
                    obstacles.iter().map(|(a, b)| Aabb::new(*a, *b)).collect(),
                    *robot_radius,
                );
                for p in surveillance_points {
                    ws.add_surveillance_point(*p);
                }
                ws
            }
        }
    }
}

/// How surveillance targets are chosen (seedless mirror of
/// [`TargetPolicy`]; the RNG seed comes from the scenario).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetPolicySpec {
    /// Visit the workspace's surveillance points in a fixed cyclic order.
    RoundRobin,
    /// Uniformly random free positions (the Sec. V-D workload).
    Random,
}

impl TargetPolicySpec {
    /// Instantiates the policy with the scenario seed.
    pub fn build(&self, seed: u64) -> TargetPolicy {
        match self {
            TargetPolicySpec::RoundRobin => TargetPolicy::RoundRobin,
            TargetPolicySpec::Random => TargetPolicy::Random { seed },
        }
    }
}

/// The mission profile of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum MissionSpec {
    /// Fly the workspace's waypoint circuit continuously until the horizon
    /// (the Fig. 5 workload — no completion target).
    CircuitLoop,
    /// Fly one lap of the waypoint circuit; the mission completes when every
    /// waypoint has been reached (the Fig. 12a / ablation workload).
    CircuitLap,
    /// The full surveillance stack of Fig. 8: application layer + planner
    /// module + battery module + motion primitive.
    Surveillance {
        /// Target-selection policy.
        policy: TargetPolicySpec,
        /// Stop after this many targets (`None` = run to the horizon).
        targets: Option<i64>,
    },
    /// Offline planner fault-injection queries (the Sec. V-C workload): no
    /// executor run, just randomized plan queries through the planner RTA
    /// decision logic.
    ///
    /// This mission type consumes only the scenario's `workspace`, `seed`
    /// and the fields below; executor-level knobs (`protection`, `advanced`,
    /// `wind`, `battery_model`, `jitter`, `horizon`, the Δ periods and
    /// `safer_factor`) have no effect because no stack is ever built — both
    /// the unprotected baseline and the DM-protected path are always
    /// evaluated side by side, as in the paper's Sec. V-C experiment.
    PlannerQueries {
        /// Number of start/goal query pairs.  Sampling is bounded: a
        /// workspace whose free space cannot yield well-separated pairs
        /// produces fewer queries (reported as such) rather than hanging.
        queries: usize,
        /// Per-query probability of the injected RRT* bug firing.
        bug_probability: f64,
    },
}

/// The stream tag of the jitter sampler in [`derive_stream_seed`].  Other
/// RNG consumers that derive from the scenario seed should claim their own
/// tag so no two streams can collide.
pub const JITTER_STREAM: u64 = 1;

/// Derives the seed of a named RNG stream from the scenario master seed
/// with a splitmix64-style mix.
///
/// The pre-refactor derivation was `scenario_seed.wrapping_add(3)`, which
/// made the jitter stream of scenario seed `s` *identical* to the stream of
/// seed `s + 3` — in a seed fan-out campaign, supposedly independent runs
/// shared correlated delay sequences.  Mixing the `(seed, stream)` pair
/// through splitmix64's finaliser decorrelates every (seed, stream)
/// combination: adjacent seeds, and different streams of the same seed,
/// land in unrelated parts of the sampler's state space.
pub fn derive_stream_seed(scenario_seed: u64, stream: u64) -> u64 {
    let mut z = scenario_seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scheduling-jitter specification of a scenario.
///
/// The i.i.d. variant re-seeds from the scenario seed at run time (via
/// [`derive_stream_seed`]), so re-seeding a scenario re-seeds its jitter;
/// the [`JitterSpec::Schedule`] variant carries a deterministic adversarial
/// [`JitterSchedule`] verbatim — the same schedule replays identically
/// whatever the scenario seed, which is what lets the falsification engine
/// shrink and pin counterexample schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum JitterSpec {
    /// No jitter — the ideal calendar.
    None,
    /// The stochastic model of the paper's stress campaign: every firing is
    /// delayed with probability `probability` by up to `max_delay`.
    Iid {
        /// Probability that a given node firing is delayed.
        probability: f64,
        /// Maximum delay applied to a delayed firing.
        max_delay: Duration,
    },
    /// A deterministic adversarial schedule, used verbatim (seed-independent).
    Schedule(JitterSchedule),
}

impl JitterSpec {
    /// No jitter — the ideal calendar.
    pub fn none() -> Self {
        JitterSpec::None
    }

    /// The stochastic i.i.d. model (the pre-refactor `JitterSpec` shape).
    pub fn iid(probability: f64, max_delay: Duration) -> Self {
        JitterSpec::Iid {
            probability,
            max_delay,
        }
    }

    /// Whether any firing can be delayed.
    pub fn is_enabled(&self) -> bool {
        match self {
            JitterSpec::None => false,
            JitterSpec::Iid {
                probability,
                max_delay,
            } => *probability > 0.0 && !max_delay.is_zero(),
            JitterSpec::Schedule(schedule) => schedule.is_enabled(),
        }
    }

    /// Instantiates the executor schedule for a scenario seed.
    pub fn model(&self, scenario_seed: u64) -> JitterSchedule {
        match self {
            JitterSpec::Iid {
                probability,
                max_delay,
            } if self.is_enabled() => JitterSchedule::Iid(JitterModel::new(
                *probability,
                *max_delay,
                derive_stream_seed(scenario_seed, JITTER_STREAM),
            )),
            JitterSpec::None | JitterSpec::Iid { .. } => JitterSchedule::Ideal,
            JitterSpec::Schedule(schedule) => schedule.clone(),
        }
    }
}

/// Spawn/route layout of a multi-drone fleet over the scenario workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetLayout {
    /// Drones fly the workspace circuit from staggered corners, alternating
    /// direction of travel, so routes cross and meet head-on.
    Crossing,
    /// Drones fly the same circuit in the same direction from staggered
    /// waypoints (a patrol convoy).
    Convoy,
    /// Drones shuttle between the two ends of a corridor in opposing
    /// directions on closely spaced lanes (use with
    /// [`WorkspaceSpec::ContestedCorridor`]).
    Corridor,
}

/// A per-drone override inside a fleet (the fleet default comes from the
/// scenario's own `protection`/`advanced` fields).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOverride {
    /// Index of the drone this override applies to.
    pub drone: usize,
    /// Protection override, if any.
    pub protection: Option<Protection>,
    /// Advanced-controller override, if any.
    pub advanced: Option<AdvancedKind>,
}

/// A multi-drone fleet: drone count, spawn layout and the separation
/// invariant's radius, plus optional per-drone overrides.
///
/// Attaching a `FleetSpec` to a [`Scenario`] (via [`Scenario::with_fleet`])
/// turns a circuit mission into a multi-drone airspace: every drone runs
/// its own RTA-protected stack and every decision module enforces φ_sep
/// against its peers' forward-reach sets (see `soter_drone::airspace`).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Number of drones (at least 2).
    pub drones: usize,
    /// Spawn/route layout.
    pub layout: FleetLayout,
    /// Minimum separation radius `r_sep` of φ_sep (metres).
    pub separation_radius: f64,
    /// Extra margin added to `r_sep` for the safe controller's yield bubble.
    pub yield_margin: f64,
    /// Per-drone overrides of protection / advanced-controller choice.
    pub overrides: Vec<FleetOverride>,
}

impl FleetSpec {
    /// A fleet of `drones` drones in the given layout with the default
    /// separation radius (1.5 m) and yield margin (1.0 m).
    ///
    /// # Panics
    ///
    /// Panics if `drones < 2`.
    pub fn new(drones: usize, layout: FleetLayout) -> Self {
        assert!(drones >= 2, "a fleet needs at least two drones");
        FleetSpec {
            drones,
            layout,
            separation_radius: 1.5,
            yield_margin: 1.0,
            overrides: Vec::new(),
        }
    }

    /// Sets the separation radius `r_sep`.
    pub fn with_separation_radius(mut self, radius: f64) -> Self {
        self.separation_radius = radius;
        self
    }

    /// Adds a per-drone override.
    pub fn with_override(mut self, o: FleetOverride) -> Self {
        self.overrides.push(o);
        self
    }

    /// The effective (protection, advanced) of drone `i`, given the fleet
    /// defaults from the scenario.
    pub fn drone_config(
        &self,
        i: usize,
        default_protection: Protection,
        default_advanced: AdvancedKind,
    ) -> (Protection, AdvancedKind) {
        let mut protection = default_protection;
        let mut advanced = default_advanced;
        for o in self.overrides.iter().filter(|o| o.drone == i) {
            if let Some(p) = o.protection {
                protection = p;
            }
            if let Some(a) = &o.advanced {
                advanced = a.clone();
            }
        }
        (protection, advanced)
    }
}

/// A declarative mission scenario.
///
/// Construct one with [`Scenario::new`] and the `with_*` builder methods, or
/// take a named one from [`crate::catalog`] and re-seed it:
///
/// ```
/// use soter_scenarios::catalog;
/// use soter_scenarios::runner::run_scenario;
///
/// let scenario = catalog::fig12a(soter_drone::stack::Protection::Rta, 3, 120.0)
///     .with_seed(42);
/// let outcome = run_scenario(&scenario);
/// assert_eq!(outcome.invariant_violations, 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name; also keys the golden-trace files, so it should be
    /// filesystem-friendly (lowercase, dashes).
    pub name: String,
    /// Workspace geometry.
    pub workspace: WorkspaceSpec,
    /// Mission profile.
    pub mission: MissionSpec,
    /// Protection level (RTA vs the unprotected baselines).
    pub protection: Protection,
    /// Advanced motion-primitive choice, including fault injection.
    pub advanced: AdvancedKind,
    /// Wind/disturbance model of the plant.
    pub wind: WindModel,
    /// Battery discharge model.
    pub battery_model: BatteryModel,
    /// Initial battery charge fraction.
    pub initial_battery: f64,
    /// Whether the full stack's advanced planner is the fault-injected RRT*.
    pub buggy_planner: bool,
    /// Scheduling jitter applied to node firings.
    pub jitter: JitterSpec,
    /// Simulated-time horizon (seconds).
    pub horizon: f64,
    /// Decision period Δ of the motion-primitive module.
    pub delta_mpr: Duration,
    /// Decision period Δ of the battery-safety module.
    pub delta_bat: Duration,
    /// Decision period Δ of the planner module.
    pub delta_plan: Duration,
    /// φ_safer hysteresis factor of the motion-primitive oracle.
    pub safer_factor: f64,
    /// Safety-filter strategy of the motion-primitive module(s): explicit
    /// Simplex (the paper's decision logic), implicit Simplex (reach-check
    /// the AC's proposed command) or ASIF (clip the command to the nearest
    /// admissible one).  Defaults to explicit Simplex, which reproduces the
    /// pre-filter-zoo behaviour byte for byte.
    pub filter: FilterKind,
    /// Multi-drone fleet, if this is an airspace scenario (`None` = the
    /// paper's single-drone setting).  Fleet scenarios fly circuit missions
    /// ([`MissionSpec::CircuitLoop`] / [`MissionSpec::CircuitLap`]).
    pub fleet: Option<FleetSpec>,
    /// Start position override (`None` = first surveillance point).
    pub start: Option<Vec3>,
    /// Master seed: sensor noise, planners, faults, target policy and (with
    /// a splitmix64 stream mix, see [`derive_stream_seed`]) i.i.d.
    /// scheduling jitter all derive from it.
    pub seed: u64,
}

impl Scenario {
    /// A scenario with the default stack parameters: city-block workspace,
    /// RTA-protected PX4-like controller on a circuit loop, calm wind, no
    /// jitter, 60 s horizon, seed 0.
    pub fn new(name: impl Into<String>) -> Self {
        let defaults = DroneStackConfig::default();
        Scenario {
            name: name.into(),
            workspace: WorkspaceSpec::CityBlock,
            mission: MissionSpec::CircuitLoop,
            protection: Protection::Rta,
            advanced: AdvancedKind::Px4Like,
            wind: WindModel::Calm,
            battery_model: defaults.battery_model,
            initial_battery: defaults.initial_battery,
            buggy_planner: false,
            jitter: JitterSpec::none(),
            horizon: 60.0,
            delta_mpr: defaults.delta_mpr,
            delta_bat: defaults.delta_bat,
            delta_plan: defaults.delta_plan,
            safer_factor: defaults.safer_factor,
            filter: FilterKind::ExplicitSimplex,
            fleet: None,
            start: None,
            seed: 0,
        }
    }

    /// Renames the scenario (the name keys golden-trace files, so keep it
    /// filesystem-friendly).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Appends a suffix to the scenario name (e.g. a variant tag).
    pub fn with_name_suffix(mut self, suffix: &str) -> Self {
        self.name.push_str(suffix);
        self
    }

    /// Sets the workspace.
    pub fn with_workspace(mut self, workspace: WorkspaceSpec) -> Self {
        self.workspace = workspace;
        self
    }

    /// Sets the mission profile.
    pub fn with_mission(mut self, mission: MissionSpec) -> Self {
        self.mission = mission;
        self
    }

    /// Sets the protection level.
    pub fn with_protection(mut self, protection: Protection) -> Self {
        self.protection = protection;
        self
    }

    /// Sets the advanced controller (including fault injection).
    pub fn with_advanced(mut self, advanced: AdvancedKind) -> Self {
        self.advanced = advanced;
        self
    }

    /// Sets the wind model.
    pub fn with_wind(mut self, wind: WindModel) -> Self {
        self.wind = wind;
        self
    }

    /// Sets the battery model and initial charge.
    pub fn with_battery(mut self, model: BatteryModel, initial: f64) -> Self {
        self.battery_model = model;
        self.initial_battery = initial;
        self
    }

    /// Selects the fault-injected RRT* as the full stack's advanced planner.
    pub fn with_buggy_planner(mut self, buggy: bool) -> Self {
        self.buggy_planner = buggy;
        self
    }

    /// Sets the scheduling-jitter model.
    pub fn with_jitter(mut self, jitter: JitterSpec) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the simulated-time horizon (seconds).
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the motion-primitive decision period Δ.
    pub fn with_delta_mpr(mut self, delta: Duration) -> Self {
        self.delta_mpr = delta;
        self
    }

    /// Sets the φ_safer hysteresis factor.
    pub fn with_safer_factor(mut self, factor: f64) -> Self {
        self.safer_factor = factor;
        self
    }

    /// Selects the safety-filter strategy of the motion-primitive module(s).
    pub fn with_filter(mut self, filter: FilterKind) -> Self {
        self.filter = filter;
        self
    }

    /// A cross-filter variant of this scenario: the same mission under a
    /// different safety filter, named `<name>-<filter-slug>` so each variant
    /// pins its own golden.
    pub fn filter_variant(&self, filter: FilterKind) -> Self {
        self.clone()
            .with_filter(filter)
            .with_name(format!("{}-{}", self.name, filter.slug()))
    }

    /// Attaches a multi-drone fleet, turning the scenario into an airspace
    /// (the mission must be a circuit mission; see [`FleetSpec`]).
    pub fn with_fleet(mut self, fleet: FleetSpec) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Sets the start position override.
    pub fn with_start(mut self, start: Vec3) -> Self {
        self.start = Some(start);
        self
    }

    /// Re-seeds the scenario (the campaign runner uses this to fan one
    /// scenario out across a seed range).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Compiles the scenario into the stack configuration the existing
    /// `soter-drone` builders consume.
    pub fn stack_config(&self, workspace: &Workspace) -> DroneStackConfig {
        DroneStackConfig {
            workspace: workspace.clone(),
            protection: self.protection,
            advanced: self.advanced.clone(),
            start: self
                .start
                .unwrap_or_else(|| workspace.surveillance_points()[0]),
            initial_battery: self.initial_battery,
            battery_model: self.battery_model,
            delta_mpr: self.delta_mpr,
            delta_bat: self.delta_bat,
            delta_plan: self.delta_plan,
            safer_factor: self.safer_factor,
            buggy_planner: self.buggy_planner,
            wind: self.wind,
            seed: self.seed,
            filter: self.filter,
            ..DroneStackConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let s = Scenario::new("custom")
            .with_workspace(WorkspaceSpec::CornerCutCourse)
            .with_mission(MissionSpec::CircuitLap)
            .with_protection(Protection::ScOnly)
            .with_horizon(12.0)
            .with_seed(9);
        assert_eq!(s.name, "custom");
        assert_eq!(s.protection, Protection::ScOnly);
        assert_eq!(s.horizon, 12.0);
        assert_eq!(s.seed, 9);
        let re_seeded = s.clone().with_seed(10);
        assert_eq!(re_seeded.name, s.name);
        assert_ne!(re_seeded.seed, s.seed);
    }

    #[test]
    fn custom_workspace_builds() {
        let spec = WorkspaceSpec::Custom {
            bounds: (Vec3::ZERO, Vec3::new(10.0, 10.0, 5.0)),
            obstacles: vec![(Vec3::new(4.0, 4.0, 0.0), Vec3::new(6.0, 6.0, 5.0))],
            robot_radius: 0.3,
            surveillance_points: vec![Vec3::new(1.0, 1.0, 2.0), Vec3::new(9.0, 9.0, 2.0)],
        };
        let ws = spec.build();
        assert_eq!(ws.obstacles().len(), 1);
        assert_eq!(ws.surveillance_points().len(), 2);
        assert!(!ws.is_free(Vec3::new(5.0, 5.0, 2.0)));
    }

    #[test]
    #[should_panic(expected = "surveillance point")]
    fn custom_workspace_without_points_panics() {
        WorkspaceSpec::Custom {
            bounds: (Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0)),
            obstacles: vec![],
            robot_radius: 0.1,
            surveillance_points: vec![],
        }
        .build();
    }

    #[test]
    fn jitter_spec_derives_seed_from_scenario() {
        let spec = JitterSpec::iid(0.2, Duration::from_millis(300));
        assert!(spec.is_enabled());
        assert_eq!(
            spec.model(13),
            JitterSchedule::Iid(JitterModel::new(
                0.2,
                Duration::from_millis(300),
                derive_stream_seed(13, JITTER_STREAM)
            ))
        );
        assert_eq!(JitterSpec::none().model(13), JitterSchedule::Ideal);
        assert_eq!(
            JitterSpec::iid(0.0, Duration::from_millis(300)).model(13),
            JitterSchedule::Ideal,
            "a zero-probability spec compiles to the ideal calendar"
        );
    }

    #[test]
    fn schedule_specs_are_seed_independent() {
        let schedule = JitterSchedule::TargetedNode {
            node: "mpr_sc".into(),
            start: soter_core::time::Time::from_millis(500),
            width: Duration::from_secs(2),
            delay: Duration::from_millis(250),
        };
        let spec = JitterSpec::Schedule(schedule.clone());
        assert!(spec.is_enabled());
        assert_eq!(spec.model(1), schedule);
        assert_eq!(
            spec.model(1),
            spec.model(999),
            "adversarial schedules replay verbatim whatever the seed"
        );
    }

    /// Regression test for the correlated-seeding bug: the old derivation
    /// (`scenario_seed.wrapping_add(3)`) made scenario seeds `s` and `s + 3`
    /// share an *identical* jitter delay stream, silently correlating
    /// supposedly independent runs of a seed fan-out.  With the splitmix64
    /// mix, every pair of nearby seeds must produce distinct streams.
    #[test]
    fn adjacent_scenario_seeds_get_distinct_jitter_streams() {
        use soter_runtime::schedule::NodeId;
        let spec = JitterSpec::iid(0.5, Duration::from_millis(100));
        let stream = |seed: u64| -> Vec<Duration> {
            let mut sampler = spec.model(seed).sampler();
            (0..32)
                .map(|i| sampler.delay(NodeId(0), "node", soter_core::time::Time::from_millis(i)))
                .collect()
        };
        for s in 0..16u64 {
            for offset in 1..=8u64 {
                assert_ne!(
                    stream(s),
                    stream(s + offset),
                    "seeds {s} and {} share a jitter stream",
                    s + offset
                );
            }
        }
        // And the derivation itself must not be a fixed-offset rebrand.
        let mut derived: Vec<u64> = (0..64)
            .map(|s| derive_stream_seed(s, JITTER_STREAM))
            .collect();
        derived.sort_unstable();
        derived.dedup();
        assert_eq!(derived.len(), 64, "stream seeds must be pairwise distinct");
    }

    #[test]
    fn stream_tags_separate_streams_of_one_seed() {
        let a = derive_stream_seed(42, JITTER_STREAM);
        let b = derive_stream_seed(42, JITTER_STREAM + 1);
        assert_ne!(a, b, "different streams of one scenario seed must differ");
    }

    #[test]
    fn stack_config_mirrors_scenario_fields() {
        let s = Scenario::new("cfg")
            .with_workspace(WorkspaceSpec::CornerCutCourse)
            .with_safer_factor(2.0)
            .with_seed(5);
        let ws = s.workspace.build();
        let cfg = s.stack_config(&ws);
        assert_eq!(cfg.seed, 5);
        assert_eq!(cfg.safer_factor, 2.0);
        assert_eq!(cfg.start, ws.surveillance_points()[0]);
        let with_start = s.with_start(Vec3::new(1.0, 2.0, 3.0));
        let cfg = with_start.stack_config(&ws);
        assert_eq!(cfg.start, Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn filter_variants_rename_and_rekey() {
        let base = Scenario::new("mission");
        assert_eq!(base.filter, FilterKind::ExplicitSimplex);
        let asif = base.filter_variant(FilterKind::Asif);
        assert_eq!(asif.name, "mission-asif");
        assert_eq!(asif.filter, FilterKind::Asif);
        let ws = asif.workspace.build();
        assert_eq!(asif.stack_config(&ws).filter, FilterKind::Asif);
        // Everything else is untouched.
        assert_eq!(asif.seed, base.seed);
        assert_eq!(asif.horizon, base.horizon);
    }
}
