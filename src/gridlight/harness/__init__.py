from .config import DESK_CITIES, default_experiment

__all__ = ["DESK_CITIES", "default_experiment"]
