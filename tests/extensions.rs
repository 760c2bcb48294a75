//! Integration tests for the protocol variants (read-only clean
//! optimization, single-writer optimization off, home-LRC write
//! notices): applications still verify, and the lazy protocol posts
//! notices where sharing demands them.

use mgs_repro::apps::{jacobi::Jacobi, water::Water, MgsApp};
use mgs_repro::core::{DssmpConfig, Machine, ProtocolKind};

fn base(p: usize, c: usize) -> DssmpConfig {
    let mut cfg = DssmpConfig::new(p, c);
    cfg.governor_window = None;
    cfg
}

#[test]
fn apps_verify_under_readonly_clean_opt() {
    for c in [1usize, 2, 4] {
        let mut cfg = base(4, c);
        cfg.readonly_clean_opt = true;
        Jacobi::small().execute(&Machine::new(cfg.clone()));
        Water::small().execute(&Machine::new(cfg));
    }
}

#[test]
fn apps_verify_with_readonly_clean_opt_and_no_single_writer_opt() {
    let mut cfg = base(4, 2);
    cfg.readonly_clean_opt = true;
    cfg.single_writer_opt = false;
    Jacobi::small().execute(&Machine::new(cfg));
}

#[test]
fn lazy_mode_posts_notices_on_read_shared_data() {
    let machine = Machine::new(base(4, 1).with_protocol(ProtocolKind::HomeLrc));
    Jacobi::small().execute(&machine);
    assert!(
        machine.proto_stats().lazy_notices.get() > 0,
        "boundary rows are read-shared, so releases must post notices"
    );
}
