"""Config parsing, validation, and canonical round-trip tests."""

import math

import pytest

from femtosim.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    config_hash,
    effective_text,
    parse_text,
)


class TestParsing:
    def test_defaults(self):
        cfg = parse_text("")
        assert cfg == ExperimentConfig()
        cfg.validate()

    def test_key_value_lines(self):
        cfg = parse_text("n_trials=500\nseed=9\nue_region=center\n")
        assert cfg.n_trials == 500 and cfg.seed == 9 and cfg.ue_region == "center"

    def test_comments_and_blank_lines(self):
        cfg = parse_text("# a comment\n\nn_faps=200\n")
        assert cfg.n_faps == 200

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_text("not_a_real_key=1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_text("n_trials=lots\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_text("just some words\n")

    def test_db_suffix_accepted(self):
        cfg = parse_text("gamma_db=9 dB\nwall_loss_db=10dB\n")
        assert cfg.gamma_db == 9.0 and cfg.wall_loss_db == 10.0

    def test_lists(self):
        cfg = parse_text("densities=10,20,30\nschemes=same,dynamic\n")
        assert cfg.densities == (10, 20, 30)
        assert cfg.schemes == ("same", "dynamic")

    def test_overrides_apply_last(self):
        cfg = parse_text("seed=3\n")
        cfg = apply_overrides(cfg, ["seed=5", "n_trials=10"])
        assert cfg.seed == 5 and cfg.n_trials == 10


class TestValidation:
    def test_default_config_valid(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize(
        "override",
        [
            "n_trials=0",
            "femto_fraction=1.5",
            "edge_split=0.9",
            "densities=100,100",
            "schemes=bogus",
            "ue_region=middle",
            "ue_distance_m=50",  # beyond the femto radius
            "band_high_hz=0",
            "n_sectors=2",
            "macro_radius_m=-1",
            "reference_distance_m=5000",
            "eta_macro=9",
            "gamma_db=inf",
            "seed=-1",
            "wall_loss_db=-3",
            "band_high_hz=5",  # too narrow for three edge bands
            "macro_radius_m=nan",
            "densities=0,10",
            "densities=-5,10",
            "macro_radius_m=inf",
            "fap_tx_power_w=inf",
            "p0_femto=inf",  # inf / inf outage ratio is NaN
            "wall_loss_db=inf",  # NaN wall attenuation with zero walls
            "walls_between_femtos=-1000",  # overflows the wall attenuation
            "gamma_db=1e300",  # overflows the linear threshold
            "gamma_db=-1e300",  # linear threshold underflows to 0
            "ue_distance_m=1e-155",  # d^-eta_desired overflows
            "ue_distance_m=1e-160",
            "ue_distance_m=1e-200",  # the UE offset's square underflows
            "ue_distance_m=1e-300",
            "macro_radius_m=1e155",  # the disc test's r * r overflows
            "macro_radius_m=1e200",
            "macro_radius_m=1e300",
            # outside the physical domain (see topology.check_domain)
            "ue_distance_m=1e-7",
            "gamma_db=200",
            "macro_radius_m=2e5",
            "n_sectors=0",
            "p0_macro=2",
            "reference_distance_m=5.0005",  # the UE can come 0.5 mm from the macro BS
        ],
    )
    def test_invalid_values_rejected(self, override):
        cfg = apply_overrides(ExperimentConfig(), [override])
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("eta", [1.5, 6])
    def test_ue_distance_floor_is_1_mm(self, eta):
        # one floor whatever the exponent or the reference FAP's distance
        for ref in ("1e-2", "1e5"):
            cfg = apply_overrides(ExperimentConfig(), [
                f"eta_desired={eta}", "macro_radius_m=1e5", f"reference_distance_m={ref}",
                "femto_radius_m=1e-3", "ue_distance_m=1e-3"])
            cfg.validate()
            with pytest.raises(ConfigError, match="ue_distance"):
                apply_overrides(cfg, [f"ue_distance_m={math.nextafter(1e-3, 0.0)!r}"]).validate()

    def test_ue_at_least_1_mm_from_the_macro_bs(self):
        cfg = apply_overrides(ExperimentConfig(), [
            "reference_distance_m=2e-3", "femto_radius_m=1e-3", "ue_distance_m=1e-3"])
        cfg.validate()
        for ref in (math.nextafter(2e-3, 0.0), 1.5e-3, 1e-3):
            with pytest.raises(ConfigError, match="1 mm"):
                apply_overrides(cfg, [f"reference_distance_m={ref!r}"]).validate()


class TestRoundTrip:
    def test_effective_text_reparses_identically(self):
        cfg = apply_overrides(
            ExperimentConfig(), ["seed=17", "densities=5,50", "gamma_db=7.5"]
        )
        text = effective_text(cfg)
        again = parse_text(text)
        assert again == cfg
        assert effective_text(again) == text

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = apply_overrides(a, ["seed=999"])
        assert config_hash(a) == config_hash(ExperimentConfig())
        assert config_hash(a) != config_hash(b)

    def test_adapters_build_module_params(self):
        cfg = ExperimentConfig()
        dp = cfg.deployment_params()
        assert dp.n_faps == cfg.n_faps
        assert dp.macro_radius_m == 1000.0
        pp = cfg.propagation()
        assert pp.wall_loss_db == 10.0
        oc = cfg.outage_config()
        assert oc.gamma_db == 9.0 and oc.n_trials == 100_000
        assert cfg.total_band().width == 60_000_000
        assert [s.value for s in cfg.scheme_list()] == list(cfg.schemes)
