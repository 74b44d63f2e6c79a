"""Exact chromatic symmetric functions of spiders, trees and small graphs
in the elementary basis, with a battery of non-e-positivity criteria."""

from espider.partitions import Partition, multinomial, partitions_of
from espider.symfunc import EExpansion, PExpansion
from espider.graphs import (SimpleGraph, Spider, Tree, enumerate_spiders,
                            enumerate_trees, line_graph, mn_tree,
                            reduce_to_spider, spider_to_tree)
from espider.csf import (coeff_four_leg, coeff_mq, coeff_three_two,
                         coeff_two_powers, csf_oracle, path_csf,
                         path_e_coefficient, spider_csf, tree_csf)
from espider.criteria import (BatteryResult, CriterionReport, Witness,
                              run_battery, tree_battery)

__version__ = "0.1.0"

__all__ = [
    "Partition", "partitions_of", "multinomial",
    "EExpansion", "PExpansion",
    "Spider", "Tree", "SimpleGraph", "spider_to_tree", "reduce_to_spider",
    "line_graph", "mn_tree", "enumerate_spiders", "enumerate_trees",
    "csf_oracle", "path_e_coefficient", "path_csf", "spider_csf",
    "tree_csf", "coeff_mq", "coeff_two_powers", "coeff_three_two",
    "coeff_four_leg",
    "run_battery", "tree_battery", "BatteryResult", "CriterionReport",
    "Witness",
    "__version__",
]
