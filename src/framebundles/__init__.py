"""Frames of finite group-sets, wreath products, and flat-bundle holonomy.

Everything is exact and desk-scale: groups are Cayley tables, group-sets are
action tables, circle angles are rationals, and every structural claim the
library makes is backed by an exhaustive check somewhere in the test suite.
"""
