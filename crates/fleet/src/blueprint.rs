//! Launch blueprints and the class catalog.
//!
//! Serving thousands of requests cannot re-run the full functional boot
//! (real hashing, real encryption) per request — and does not need to: the
//! virtual-time shape of a boot is a property of its *configuration*. So the
//! control plane boots each request class **twice** on a real
//! [`sevf_vmm::Machine`], converts each resulting timeline into a
//! replayable [`Blueprint`] (placed on the host's resources by
//! [`Segment::for_class`], as `sevf_vmm::concurrent::boot_job` places a
//! boot), and replays that blueprint for every request of the class.
//!
//! Three blueprints per class, from two boots:
//!
//! * **cold** — a full launch: every byte measured by the PSP. It is also
//!   the §6.2 **template fill**: the first shared-key launch of a
//!   configuration is a full launch that leaves its template behind.
//! * **template hit** — later identical launches reuse the template's key
//!   and measurement and skip almost all PSP work. A host's template set
//!   ([`crate::host::Host::templates`]) decides fill vs hit by
//!   content-address ([`TemplateKey`] = the launch measurement).
//! * **warm invoke** — the §7.1 keep-alive path: no launch at all, just a
//!   vCPU kick into the resident cold guest.

use sevf_image::kernel::KernelConfig;
use sevf_obs::WorkStep;
use sevf_psp::TemplateKey;
use sevf_sim::cost::SevGeneration;
use sevf_sim::{Job, Nanos, PhaseKind, ResourceClass, ResourceId, Segment};
use sevf_vmm::config::LaunchMode;
use sevf_vmm::{BootPolicy, BootReport, Machine, MicroVm, VmConfig};

use crate::FleetError;

/// One mebibyte: the unit guest-memory sizes are spelled in.
pub const MB: u64 = 1024 * 1024;

/// The virtual-time shape of one launch, replayable as a DES job.
///
/// Steps keep the boot timeline's phase and per-step label (the PSP
/// command names, attestation round trips, ...), so a replayed launch can
/// be traced back to the paper's phase breakdowns instead of flattening
/// into anonymous `(class, duration)` pairs.
#[derive(Debug, Clone)]
pub struct Blueprint {
    /// Label carried into job segments (shows up in traces).
    pub label: String,
    /// Ordered resource-class steps with their boot phases and labels.
    pub steps: Vec<WorkStep>,
}

impl Blueprint {
    /// Extracts the blueprint of a boot report's timeline, preserving each
    /// span's phase and label.
    fn from_report(label: impl Into<String>, report: &BootReport) -> Self {
        Blueprint {
            label: label.into(),
            steps: report
                .timeline
                .spans()
                .iter()
                .map(|span| {
                    WorkStep::new(span.class, span.phase, span.label.clone(), span.duration)
                })
                .collect(),
        }
    }

    /// A single-step CPU blueprint (used for warm invocations).
    fn cpu_step(label: impl Into<String>, duration: Nanos) -> Self {
        let label = label.into();
        Blueprint {
            steps: vec![WorkStep::new(
                ResourceClass::HostCpu,
                PhaseKind::VmmSetup,
                label.clone(),
                duration,
            )],
            label,
        }
    }

    /// Serialized PSP work this blueprint costs per replay — what a WFQ
    /// lane is charged for it and what JSQ placement sums as backlog.
    pub fn psp_work(&self) -> Nanos {
        self.steps
            .iter()
            .filter(|step| step.class == ResourceClass::Psp)
            .map(|step| step.duration)
            .sum()
    }

    /// Total service time (all steps, uncontended).
    pub fn service_time(&self) -> Nanos {
        self.steps.iter().map(|step| step.duration).sum()
    }

    /// Whether any step is a network delay (attestation round trips) —
    /// the launches attestation faults can strike.
    pub fn has_network(&self) -> bool {
        self.steps
            .iter()
            .any(|step| step.class == ResourceClass::Network)
    }

    /// The prefix of this blueprint consuming `frac` of its service time —
    /// the work a launch burns before a transient fault kills it. The last
    /// step is cut partially; `frac` is clamped to `[0, 1]`.
    pub(crate) fn truncate_frac(&self, frac: f64) -> Blueprint {
        let frac = frac.clamp(0.0, 1.0);
        let mut budget = self.service_time().scale_f64(frac);
        let mut steps = Vec::new();
        for step in &self.steps {
            if budget == Nanos::ZERO {
                break;
            }
            let take = step.duration.min(budget);
            steps.push(WorkStep::new(
                step.class,
                step.phase,
                step.label.clone(),
                take,
            ));
            budget = budget.saturating_sub(take);
        }
        Blueprint {
            label: format!("{} (aborted)", self.label),
            steps,
        }
    }

    /// Converts the blueprint, followed by `tail` (an attestation verdict's
    /// steps; empty for a refill), into a DES job released at `at`.
    pub(crate) fn to_job(
        &self,
        tail: &[WorkStep],
        at: Nanos,
        cpu: ResourceId,
        psp: ResourceId,
    ) -> Job {
        let segments = self
            .steps
            .iter()
            .chain(tail)
            .map(|step| Segment::for_class(step.class, step.duration, cpu, psp))
            .collect();
        Job::released_at(at, segments)
    }
}

/// One request class the fleet serves: a named VM configuration.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// Display name ("aws-snp", ...).
    pub name: String,
    /// The configuration every request of this class launches.
    pub config: VmConfig,
}

impl ClassSpec {
    /// Builds a class from a policy/generation/kernel triple at the paper's
    /// guest size (`mem_size` bytes of guest memory — the PSP's RMP-init
    /// cost scales with it, so this knob sets the Fig. 12 slope).
    pub fn new(
        name: impl Into<String>,
        policy: BootPolicy,
        generation: SevGeneration,
        kernel: KernelConfig,
        mem_size: u64,
    ) -> Self {
        let mut config = VmConfig::paper_default(policy, kernel);
        config.generation = generation;
        config.mem_size = mem_size.max(32 * MB);
        ClassSpec {
            name: name.into(),
            config,
        }
    }

    /// The paper-mix request classes: the three §6.1 kernels across
    /// SEV / SEV-ES / SEV-SNP plus a stock (non-SEV) class, with images
    /// scaled down by `kernel_div` (1 = paper scale) and `mem_size` of
    /// guest memory.
    pub fn paper_classes(kernel_div: u64, mem_size: u64) -> Vec<ClassSpec> {
        let scaled = |k: KernelConfig| {
            if kernel_div == 1 {
                k
            } else {
                k.scaled_down(kernel_div)
            }
        };
        let mut classes = vec![
            ClassSpec::new(
                "aws-snp",
                BootPolicy::Severifast,
                SevGeneration::SevSnp,
                scaled(KernelConfig::aws()),
                mem_size,
            ),
            ClassSpec::new(
                "lupine-snp",
                BootPolicy::Severifast,
                SevGeneration::SevSnp,
                scaled(KernelConfig::lupine()),
                mem_size,
            ),
            ClassSpec::new(
                "ubuntu-es",
                BootPolicy::Severifast,
                SevGeneration::SevEs,
                scaled(KernelConfig::ubuntu()),
                mem_size,
            ),
            ClassSpec::new(
                "aws-sev",
                BootPolicy::Severifast,
                SevGeneration::Sev,
                scaled(KernelConfig::aws()),
                mem_size,
            ),
            ClassSpec::new(
                "stock",
                BootPolicy::StockFirecracker,
                SevGeneration::None,
                scaled(KernelConfig::aws()),
                mem_size,
            ),
        ];
        for class in &mut classes {
            class.config.initrd_size = sevf_image::initrd::FULL_SIZE / kernel_div;
        }
        classes
    }

    /// Two tiny classes for fast tests and doctests.
    pub fn quick_test_classes() -> Vec<ClassSpec> {
        vec![
            ClassSpec {
                name: "tiny-snp".into(),
                config: VmConfig::test_tiny(BootPolicy::Severifast),
            },
            ClassSpec {
                name: "tiny-stock".into(),
                config: VmConfig::test_tiny(BootPolicy::StockFirecracker),
            },
        ]
    }
}

/// The measured blueprints of one request class.
#[derive(Debug, Clone)]
pub struct ClassBlueprints {
    /// Class name.
    pub name: String,
    /// Content-address of the class's launch template.
    pub key: TemplateKey,
    /// Full cold launch; also the template fill, which is the first
    /// shared-key launch of the class.
    pub cold: Blueprint,
    /// Template hit: a launch reusing the filled template.
    pub template_hit: Blueprint,
    /// Warm invocation into a resident keep-alive guest.
    pub warm_invoke: Blueprint,
    /// Host memory one keep-alive of this class holds resident (§7.1 rent).
    pub resident_bytes: u64,
}

/// The fleet's class catalog: every class booted twice on a real machine
/// (a cold launch that fills the template, then a template hit),
/// blueprints extracted for replay.
#[derive(Debug, Clone)]
pub struct Catalog {
    classes: Vec<ClassBlueprints>,
}

impl Catalog {
    /// Boots each class on a fresh seeded machine and extracts blueprints.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoClasses`] for an empty spec list;
    /// [`FleetError::Boot`] if any blueprint boot fails.
    pub fn build(seed: u64, specs: &[ClassSpec]) -> Result<Catalog, FleetError> {
        if specs.is_empty() {
            return Err(FleetError::NoClasses);
        }
        let mut classes = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let mut machine = Machine::new(seed.wrapping_add(i as u64).wrapping_mul(0x9e37) | 1);
            machine
                .owner
                .set_required_generation(spec.config.generation);

            // Cold: a shared-key launch on a machine with no template yet
            // is a full launch, fresh key, everything measured, and it
            // fills `machine.templates`. The guest stays resident: the warm
            // invoke below is timed in it.
            let mut config = spec.config.clone();
            config.launch_mode = LaunchMode::SharedKeyTemplate;
            let vm = MicroVm::new(config)?;
            if spec.config.policy.is_sev() {
                vm.register_expected(&mut machine)?;
            }
            let (cold_report, warm_vm) = vm.boot_keep_alive(&mut machine)?;
            let key = match cold_report.measurement {
                Some(m) => TemplateKey::from_measurement(m),
                // Non-SEV classes have no launch measurement; give each a
                // distinct synthetic address so cache/affinity logic still
                // has a per-class identity.
                None => {
                    let mut pseudo = [0xA5u8; 48];
                    pseudo[0] = i as u8;
                    TemplateKey::from_measurement(pseudo)
                }
            };

            // Template hit: the same launch again reuses the filled template.
            let hit_report = vm.boot(&mut machine)?;

            // Warm: a vCPU kick into the resident cold guest.
            let invocation = warm_vm.invoke(&machine.cost);

            classes.push(ClassBlueprints {
                name: spec.name.clone(),
                key,
                cold: Blueprint::from_report(format!("{} cold", spec.name), &cold_report),
                template_hit: Blueprint::from_report(
                    format!("{} template-hit", spec.name),
                    &hit_report,
                ),
                warm_invoke: Blueprint::cpu_step(
                    format!("{} warm-invoke", spec.name),
                    invocation.latency,
                ),
                resident_bytes: warm_vm.resident_bytes(),
            });
        }
        Ok(Catalog { classes })
    }

    /// The measured classes, in spec order.
    pub fn classes(&self) -> &[ClassBlueprints] {
        &self.classes
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the catalog is empty (never true for a built catalog).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// One class by index.
    pub fn class(&self, idx: usize) -> &ClassBlueprints {
        &self.classes[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_catalog() -> Catalog {
        Catalog::build(41, &ClassSpec::quick_test_classes()).unwrap()
    }

    #[test]
    fn catalog_builds_all_tiers_for_each_class() {
        let catalog = quick_catalog();
        assert_eq!(catalog.len(), 2);
        for class in catalog.classes() {
            assert!(class.cold.service_time() > Nanos::ZERO, "{}", class.name);
            assert!(class.warm_invoke.service_time() > Nanos::ZERO);
            assert!(class.resident_bytes > 0);
        }
    }

    #[test]
    fn template_hit_skips_most_psp_work() {
        let catalog = quick_catalog();
        let snp = catalog.class(0);
        assert!(snp.cold.psp_work() > Nanos::ZERO);
        // The fill (a cold launch) pays full launch work; the hit skips
        // nearly all of it (§6.2).
        assert!(snp.cold.psp_work() > snp.template_hit.psp_work().scale(5));
        // Warm invocation touches the PSP not at all.
        assert_eq!(snp.warm_invoke.psp_work(), Nanos::ZERO);
    }

    #[test]
    fn warm_invoke_is_far_cheaper_than_any_launch() {
        let catalog = quick_catalog();
        let snp = catalog.class(0);
        assert!(snp.cold.service_time() > snp.warm_invoke.service_time().scale(100));
        assert!(snp.template_hit.service_time() > snp.warm_invoke.service_time());
    }

    #[test]
    fn stock_class_uses_no_psp() {
        let catalog = quick_catalog();
        let stock = catalog.class(1);
        assert_eq!(stock.cold.psp_work(), Nanos::ZERO);
    }

    #[test]
    fn keys_are_distinct_per_class() {
        let catalog = quick_catalog();
        assert_ne!(catalog.class(0).key, catalog.class(1).key);
    }

    #[test]
    fn catalog_is_deterministic_under_a_seed() {
        let a = Catalog::build(9, &ClassSpec::quick_test_classes()).unwrap();
        let b = Catalog::build(9, &ClassSpec::quick_test_classes()).unwrap();
        assert_eq!(a.class(0).key, b.class(0).key);
        assert_eq!(
            a.class(0).cold.service_time(),
            b.class(0).cold.service_time()
        );
    }

    #[test]
    fn truncate_frac_takes_a_prefix_of_the_work() {
        let catalog = quick_catalog();
        let bp = &catalog.class(0).cold;
        let half = bp.truncate_frac(0.5);
        let tol = Nanos::from_nanos(1);
        assert!(half.service_time() <= bp.service_time().scale_f64(0.5) + tol);
        assert!(half.service_time() + tol >= bp.service_time().scale_f64(0.5));
        // Prefix property: step classes and labels match the original's
        // in order.
        for (a, b) in half.steps.iter().zip(&bp.steps) {
            assert_eq!(a.class, b.class);
            assert_eq!(a.label, b.label);
        }
        assert!(bp.truncate_frac(0.0).steps.is_empty());
        assert_eq!(bp.truncate_frac(1.0).service_time(), bp.service_time());
        assert_eq!(bp.truncate_frac(7.0).service_time(), bp.service_time());
    }

    #[test]
    fn blueprint_job_round_trips_service_time() {
        let catalog = quick_catalog();
        let bp = &catalog.class(0).cold;
        let mut engine = sevf_sim::DesEngine::new();
        let psp = engine.add_resource("psp", 1);
        let cpu = engine.add_resource("cpu", 4);
        let outcomes = engine.run(vec![bp.to_job(&[], Nanos::ZERO, cpu, psp)]);
        assert_eq!(outcomes[0].latency(), bp.service_time());
    }
}
