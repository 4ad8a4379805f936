//! The workloads read committed circuits, rendered once from the ISCAS-85
//! stand-in generators (`uds_netlist::generators::iscas`). This test pins
//! each file's canonical hash and shape, so a changed file — or one
//! re-rendered from changed generators — cannot silently change what a
//! workload measures.

use uds_core::netlist_hash;
use uds_netlist::{bench_format, levelize};

/// (name, netlist_hash, gates, primary inputs, primary outputs, depth)
const PINNED: [(&str, u64, usize, usize, usize, u32); 4] = [
    ("c432", 0x9ba7_d3c8_5624_cf0c, 160, 36, 13, 17),
    ("c880", 0x519f_471f_feeb_8052, 383, 60, 27, 24),
    ("c1908", 0xe8a3_b7f6_9917_f6f1, 880, 33, 54, 40),
    ("c6288", 0x83b8_50d4_95f5_b5fe, 3264, 32, 32, 117),
];

#[test]
fn committed_circuits_match_their_pins() {
    for (name, hash, gates, inputs, outputs, depth) in PINNED {
        let path = format!("{}/circuits/{name}.bench", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap();
        let nl = bench_format::parse(&text, name).unwrap();
        assert_eq!(netlist_hash(&nl), hash, "{name} hash");
        assert_eq!(nl.gate_count(), gates, "{name} gates");
        assert_eq!(nl.primary_inputs().len(), inputs, "{name} inputs");
        assert_eq!(nl.primary_outputs().len(), outputs, "{name} outputs");
        assert_eq!(levelize(&nl).unwrap().depth, depth, "{name} depth");
    }
}
